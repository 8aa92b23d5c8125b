// Package sos is the public API of the Secure Opportunistic Schemes (SOS)
// middleware — a from-scratch, stdlib-only reproduction of the system
// described in "In Vivo Evaluation of the Secure Opportunistic Schemes
// Middleware using a Delay Tolerant Social Network" (Baker, Starke,
// Hill-Jarrett, McNair; ICDCS 2017).
//
// SOS turns any application into a secure delay-tolerant network node:
// applications publish signed actions (posts, follows, direct messages),
// and the middleware disseminates them opportunistically over
// device-to-device encounters using pluggable routing schemes (epidemic,
// interest-based, spray-and-wait, PRoPHET), with PKI-backed identity,
// encrypted sessions, and end-to-end sealed payloads.
//
// A minimal deployment:
//
//	ca, _ := sos.NewCA("Example Root CA", nil)
//	cld := sos.NewCloud(ca, nil)
//	medium := sos.NewMemMedium()
//
//	creds, _ := sos.Bootstrap(cld, "alice")
//	alice, _ := sos.NewNode(sos.NodeConfig{Creds: creds, Medium: medium})
//	defer alice.Close()
//
//	alice.Post([]byte("hello, opportunistic world"))
//
// Peers on the same medium that follow alice (interest-based routing) or
// simply encounter her (epidemic routing) receive the post during
// contacts, with every hop certificate-verified — no infrastructure
// needed after Bootstrap.
package sos

import (
	"io"
	"time"

	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/netmedium"
	"sos/internal/obs"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
)

// Identity and message types.
type (
	// UserID is the 10-byte unique user identifier advertised during peer
	// discovery.
	UserID = id.UserID
	// Identity is a user's long-term signing key pair.
	Identity = id.Identity
	// Message is one immutable, author-signed user action, shared
	// read-only wherever the node hands it out (see msg.Message).
	Message = msg.Message
	// Ref uniquely identifies a message as (author, sequence number).
	Ref = msg.Ref
	// Kind enumerates user-action types.
	Kind = msg.Kind
)

// Storage types: the pluggable on-device database (paper §V: the
// middleware "saves the action to the local database on the mobile
// device" before dissemination).
type (
	// Store is a node's local message database engine. Two backends
	// ship: MemStore (volatile) and DiskStore (survives restarts); both
	// enforce buffer quotas with a pluggable EvictionPolicy.
	Store = store.Engine
	// MemStore is the in-memory storage engine.
	MemStore = store.Store
	// DiskStore is the durable storage engine: one append-only record
	// log, compacted in place, crash-recoverable.
	DiskStore = store.Disk
	// StoreOptions tunes an engine: quotas, eviction policy, clock.
	StoreOptions = store.Options
	// StoreStats counts storage events (puts, evictions, occupancy).
	StoreStats = store.Stats
	// Eviction describes one dropped message.
	Eviction = store.Eviction
	// EvictionPolicy ranks eviction victims for a full buffer.
	EvictionPolicy = store.Policy
)

// Message kinds.
const (
	KindPost     = msg.KindPost
	KindFollow   = msg.KindFollow
	KindUnfollow = msg.KindUnfollow
	KindDirect   = msg.KindDirect
)

// Infrastructure types (used only during the one-time bootstrap and for
// online maintenance).
type (
	// CA is the certificate authority.
	CA = pki.CA
	// UserCert is a verified user certificate.
	UserCert = pki.UserCert
	// Verifier validates peer certificates on a device.
	Verifier = pki.Verifier
	// Cloud is the simulated online backend.
	Cloud = cloud.Service
	// Credentials is what a device holds after bootstrap.
	Credentials = cloud.Credentials
	// Account is a registered cloud account.
	Account = cloud.Account
)

// Medium types: the device-to-device substrate.
type (
	// Medium is a world devices can join.
	Medium = mpc.Medium
	// MemMedium is the live in-process medium.
	MemMedium = mpc.MemMedium
	// SimMedium is the deterministic virtual-time medium.
	SimMedium = mpc.SimMedium
	// NetMedium is the real-socket medium: UDP beacon discovery plus
	// TCP sessions on one listener per node, for running nodes across
	// processes and machines.
	NetMedium = netmedium.Medium
	// NetConfig tunes a NetMedium (beacon addresses, ports, timeouts).
	NetConfig = netmedium.Config
	// PeerID names a device on a medium.
	PeerID = mpc.PeerID
	// Technology is a radio technology (Bluetooth, p2p WiFi, infra WiFi).
	Technology = mpc.Technology
)

// Radio technologies.
const (
	Bluetooth          = mpc.Bluetooth
	PeerToPeerWiFi     = mpc.PeerToPeerWiFi
	InfrastructureWiFi = mpc.InfrastructureWiFi
)

// Clock types.
type (
	// Clock supplies time to the middleware.
	Clock = clock.Clock
	// VirtualClock is a manually-advanced clock for simulations.
	VirtualClock = clock.Virtual
)

// Routing types.
type (
	// RoutingScheme is one opportunistic routing protocol.
	RoutingScheme = routing.Scheme
	// RoutingOptions tunes scheme construction.
	RoutingOptions = routing.Options
	// SchemeFactory builds a custom scheme over a node's store view.
	SchemeFactory = routing.Factory
	// StoreView is the read-only store surface schemes consume.
	StoreView = routing.StoreView
)

// Built-in routing scheme names.
const (
	SchemeEpidemic     = routing.SchemeEpidemic
	SchemeInterest     = routing.SchemeInterest
	SchemeSprayAndWait = routing.SchemeSprayAndWait
	SchemeProphet      = routing.SchemeProphet
)

// Node types: a running middleware instance.
type (
	// Node is one application's SOS middleware instance.
	Node = core.Middleware
	// NodeConfig assembles a Node.
	NodeConfig = core.Config
	// NodeStats aggregates per-layer counters.
	NodeStats = core.Stats
	// SecurityConfig tunes the secure layer (NodeConfig.Security): the
	// persistent replay-store directory and its fsync policy. See
	// docs/SECURITY.md.
	SecurityConfig = core.SecurityConfig
	// Observer receives middleware lifecycle events (NodeConfig.Observer):
	// the one observation path, which telemetry, the lab and the
	// simulator all ride, and the hook for contact up/down lines.
	Observer = core.Observer
)

// CombineObservers fans lifecycle events out to every non-nil observer.
func CombineObservers(observers ...Observer) Observer {
	return core.CombineObservers(observers...)
}

// NewNode wires up and starts a middleware instance.
func NewNode(cfg NodeConfig) (*Node, error) {
	return core.New(cfg)
}

// NewMemStore creates an in-memory storage engine for owner. Pass it in
// NodeConfig.Store to bound a node's buffer; a nil NodeConfig.Store gets
// an unbounded one automatically.
func NewMemStore(owner UserID, opts StoreOptions) *MemStore {
	return store.NewMemory(owner, opts)
}

// OpenDiskStore opens (or creates) the durable storage engine in dir,
// replaying its record log so a restarted daemon resumes its message
// database, subscriptions, and eviction tombstones.
func OpenDiskStore(dir string, owner UserID, opts StoreOptions) (*DiskStore, error) {
	return store.OpenDisk(dir, owner, opts)
}

// PolicyByName builds an eviction policy from its registry name
// ("drop-oldest", "ttl", "size-quota", "subscription-priority"); ttl
// parameterizes the "ttl" policy. An empty name selects "ttl" when ttl >
// 0 and "drop-oldest" otherwise.
func PolicyByName(name string, ttl time.Duration) (EvictionPolicy, error) {
	return store.PolicyByName(name, ttl)
}

// NewCA creates a certificate authority with a fresh self-signed root.
// clk may be nil for wall time.
func NewCA(name string, clk Clock) (*CA, error) {
	if clk == nil {
		return pki.NewCA(name)
	}
	return pki.NewCA(name, pki.WithClock(clk.Now))
}

// NewCloud creates the simulated online backend fronting ca. clk may be
// nil for wall time.
func NewCloud(ca *CA, clk Clock) *Cloud {
	if clk == nil {
		return cloud.New(ca)
	}
	return cloud.New(ca, cloud.WithClock(clk.Now))
}

// Bootstrap performs the one-time infrastructure requirement for a new
// user: sign up, generate keys on-device, receive a certificate and the
// pinned CA root (paper Fig. 2a).
func Bootstrap(svc *Cloud, handle string) (*Credentials, error) {
	return cloud.Bootstrap(svc, handle, nil)
}

// BootstrapWithRand is Bootstrap with an explicit entropy source. A seeded
// reader, for simulation and benchmarks only, makes the identity key a
// function of the seed and its signatures RFC 6979, so a seeded run
// repeats byte for byte; deployed nodes use Bootstrap.
func BootstrapWithRand(svc *Cloud, handle string, rng io.Reader) (*Credentials, error) {
	return cloud.Bootstrap(svc, handle, rng)
}

// NewMemMedium creates a live in-process medium for examples and tests.
func NewMemMedium() *MemMedium {
	return mpc.NewMemMedium()
}

// NewNetMedium creates the real-socket medium so a node runs in vivo:
// discovery beacons over UDP (broadcast, multicast, or static peers) and
// encrypted-session frames over TCP connections to one session listener
// per node.
func NewNetMedium(cfg NetConfig) (*NetMedium, error) {
	return netmedium.New(cfg)
}

// SaveCredentials persists bootstrap credentials (identity key,
// certificate, pinned root) so a daemon can start without reaching the
// cloud; the file holds the private key and is written owner-only.
func SaveCredentials(creds *Credentials, path string) error {
	return cloud.SaveCredentials(creds, path)
}

// LoadCredentials reads credentials written by SaveCredentials,
// re-verifying the certificate against the bundled root.
func LoadCredentials(path string) (*Credentials, error) {
	return cloud.LoadCredentials(path)
}

// NewSimMedium creates a deterministic virtual-time medium driven by clk.
func NewSimMedium(clk *VirtualClock) *SimMedium {
	return mpc.NewSimMedium(clk)
}

// NewVirtualClock creates a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return clock.NewVirtual(start)
}

// SystemClock returns the wall-time clock.
func SystemClock() Clock {
	return clock.System()
}

// NewUserID derives the stable user identifier for a handle, exactly as
// the cloud assigns them.
func NewUserID(handle string) UserID {
	return id.NewUserID(handle)
}

// ParseUserID decodes a UserID display string.
func ParseUserID(s string) (UserID, error) {
	return id.ParseUserID(s)
}

// Observability types: the per-node metrics registry, HTTP debug surface
// (/metrics, /healthz, /debug/trace, /debug/pprof), and the span tracer
// sosd serves in production.
type (
	// MetricsRegistry collects counters, gauges, and histograms and
	// renders them in Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// DebugServer is the per-node HTTP debug surface.
	DebugServer = obs.Server
	// DebugServerConfig assembles a DebugServer.
	DebugServerConfig = obs.ServerConfig
	// NodeMetrics names the layer sources RegisterNodeMetrics bridges.
	NodeMetrics = obs.NodeMetrics
	// Tracer is the per-node contact-session span recorder: a bounded
	// ring (a flight recorder — newest spans overwrite oldest) the debug
	// server dumps as Chrome trace_event JSON at /debug/trace. Pass one
	// in NodeConfig.Tracer and DebugServerConfig.Tracer.
	Tracer = obs.Tracer
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer creates a span tracer whose ring holds capacity records
// (a few thousand by default when capacity <= 0).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewDebugServer binds and serves a node's debug surface.
func NewDebugServer(cfg DebugServerConfig) (*DebugServer, error) { return obs.NewServer(cfg) }

// RegisterNodeMetrics bridges a node's layer statistics into a registry
// at scrape time; see the internal obs package for the metric catalog.
func RegisterNodeMetrics(reg *MetricsRegistry, nm NodeMetrics) { obs.RegisterNodeMetrics(reg, nm) }
