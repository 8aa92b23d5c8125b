// Command sosd runs one SOS node as an OS process over real sockets —
// the in vivo deployment shape of the middleware. Where the paper's
// evaluation put SOS inside an iOS app on real phones, sosd puts the same
// stack behind a NetMedium: UDP beacons discover peers (LAN broadcast,
// multicast, or static addresses) and TCP sessions on one listener carry
// the encrypted frames.
//
// The one-time infrastructure requirement happens ahead of deployment:
//
//	sosd provision -dir ./creds -handles alice,bob
//
// writes one credentials file per handle, all certified by a common root,
// so nodes need no cloud at runtime:
//
//	sosd run -creds ./creds/alice.creds -session-port 7500
//	sosd run -creds ./creds/bob.creds   -session-port 7600   (second terminal)
//
// Each node then takes commands on stdin: "post <text>", "follow
// <handle>", "peers", "stats", "quit".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sos"
	"sos/internal/clock"
	"sos/internal/obs"
	"sos/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "provision":
		err = provision(os.Args[2:])
	case "run":
		err = run(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sosd: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sosd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sosd provision -dir DIR -handles a,b,c [-ca NAME]
      create a CA and write one credentials file per handle

  sosd run -creds FILE [options]
      run a node; see "sosd run -h" for options`)
}

// provision performs the paper's Fig. 2a bootstrap for a set of handles
// ahead of deployment and writes the resulting credentials files.
func provision(args []string) error {
	fs := flag.NewFlagSet("provision", flag.ExitOnError)
	dir := fs.String("dir", ".", "output directory for credentials files")
	handles := fs.String("handles", "", "comma-separated handles to provision")
	caName := fs.String("ca", "SOS Deployment Root CA", "certificate authority name")
	fs.Parse(args)
	if *handles == "" {
		return fmt.Errorf("provision requires -handles")
	}
	ca, err := sos.NewCA(*caName, nil)
	if err != nil {
		return fmt.Errorf("creating CA: %w", err)
	}
	cld := sos.NewCloud(ca, nil)
	if err := os.MkdirAll(*dir, 0o700); err != nil {
		return err
	}
	for _, handle := range strings.Split(*handles, ",") {
		handle = strings.TrimSpace(handle)
		if handle == "" {
			continue
		}
		creds, err := sos.Bootstrap(cld, handle)
		if err != nil {
			return fmt.Errorf("bootstrapping %s: %w", handle, err)
		}
		path := filepath.Join(*dir, handle+".creds")
		if err := sos.SaveCredentials(creds, path); err != nil {
			return err
		}
		fmt.Printf("provisioned %-12s user %s  → %s\n", handle, creds.Ident.User, path)
	}
	return nil
}

// run boots a node from a credentials file and serves until stdin closes
// or a signal arrives.
func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	credsPath := fs.String("creds", "", "credentials file from 'sosd provision' (required)")
	name := fs.String("name", "", "device discovery name (default: handle + \"-device\")")
	scheme := fs.String("scheme", "epidemic", "routing scheme: epidemic, interest, spray-and-wait, prophet")
	beaconListen := fs.String("beacon-listen", ":7474", "UDP address for discovery beacons (multicast group to join one)")
	beaconTargets := fs.String("beacon-targets", "", "comma-separated beacon destinations (broadcast, multicast, or peer addresses)")
	listenIP := fs.String("listen-ip", "", "IP to bind the TCP session listener (default: all interfaces)")
	sessionPort := fs.Int("session-port", 0, "TCP port of the session listener (0 = ephemeral)")
	interval := fs.Duration("beacon-interval", time.Second, "gap between discovery beacons")
	loss := fs.Duration("loss-timeout", 0, "silence before a peer is lost (default: 3.5 × interval)")
	post := fs.String("post", "", "publish one post at startup")
	follow := fs.String("follow", "", "comma-separated handles or user ids to follow at startup")
	storeKind := fs.String("store", "mem", "storage engine: mem (volatile) or disk (survives restarts)")
	storeDir := fs.String("store-dir", "", "disk engine directory; the replay store (seen envelope nonces) goes in its replay/ subdirectory (default: <creds file>.store)")
	quota := fs.Int("quota", 0, "max buffered messages; over quota the eviction policy drops relay cargo (0 = unbounded)")
	evict := fs.String("evict", "", "eviction policy: drop-oldest, ttl, size-quota, subscription-priority (default: drop-oldest, or ttl when -relay-ttl is set)")
	relayTTL := fs.Duration("relay-ttl", 0, "lifetime of other users' messages in the buffer (0 = forever)")
	telemetryAddr := fs.String("telemetry", "", "stream lifecycle events to a collector at this TCP address (e.g. a soslab run)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /debug/trace, and /debug/pprof on this TCP address (e.g. 127.0.0.1:9090)")
	logLevel := fs.String("log-level", "info", "operational log level: debug, info, warn, error")
	logJSON := fs.Bool("log-json", false, "emit operational logs as JSON instead of text")
	fs.Parse(args)
	if *credsPath == "" {
		return fmt.Errorf("run requires -creds (generate one with 'sosd provision')")
	}

	// Operational logging goes to stderr via slog, leveled and optionally
	// structured; stdout stays the interactive REPL surface.
	log, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}

	creds, err := sos.LoadCredentials(*credsPath)
	if err != nil {
		return err
	}

	// The span flight recorder rides behind the debug server: with
	// -debug-addr set, every layer records contact-session spans into a
	// bounded ring dumped on demand at /debug/trace.
	var tracer *sos.Tracer
	if *debugAddr != "" {
		tracer = sos.NewTracer(0)
	}

	// The storage engine: the paper's on-device database, here either a
	// volatile in-memory buffer or a crash-recoverable disk database
	// that lets the daemon resume messages and subscriptions after a
	// restart.
	dir, replayDir, err := storageDirs(*storeKind, *storeDir, *credsPath)
	if err != nil {
		return err
	}
	policy, err := sos.PolicyByName(*evict, *relayTTL)
	if err != nil {
		return err
	}
	storeOpts := sos.StoreOptions{
		MaxMessages: *quota,
		Policy:      policy,
		Tracer:      tracer,
	}
	var engine sos.Store
	if dir == "" {
		engine = sos.NewMemStore(creds.Ident.User, storeOpts)
	} else {
		disk, err := sos.OpenDiskStore(dir, creds.Ident.User, storeOpts)
		if err != nil {
			return err
		}
		if n := disk.Len(); n > 0 {
			log.Info("resumed disk store", "messages", n, "subscriptions", len(disk.Subscriptions()), "dir", dir)
		}
		engine = disk
	}
	cfg := sos.NetConfig{
		BeaconListen:   *beaconListen,
		ListenIP:       *listenIP,
		SessionPort:    *sessionPort,
		BeaconInterval: *interval,
		LossTimeout:    *loss,
		Logf:           obs.Logf(log),
		Tracer:         tracer,
	}
	if *beaconTargets != "" {
		cfg.BeaconTargets = strings.Split(*beaconTargets, ",")
	}
	medium, err := sos.NewNetMedium(cfg)
	if err != nil {
		return err
	}

	// Live telemetry: every lifecycle event (created, disseminated,
	// delivered, evicted, contact up/down) streams to the collector so
	// a soslab experiment measures this node without touching it.
	var observer sos.Observer = replObserver{}
	var exporter *telemetry.Exporter
	if *telemetryAddr != "" {
		exporter = telemetry.NewExporter(*telemetryAddr, telemetry.ExporterOptions{Logf: obs.Logf(log), Tracer: tracer})
		defer exporter.Close() // after node.Close below: final events still flush
		observer = sos.CombineObservers(observer, telemetry.NewObserver(creds.Ident.User, clock.System(), exporter))
		log.Info("telemetry streaming", "collector", *telemetryAddr)
	}

	node, err := sos.NewNode(sos.NodeConfig{
		Creds:    creds,
		Medium:   medium,
		PeerName: sos.PeerID(*name),
		Scheme:   *scheme,
		Store:    engine,
		Observer: observer,
		Tracer:   tracer,
		Security: sos.SecurityConfig{Dir: replayDir},
		OnReceive: func(m *sos.Message, from sos.UserID) {
			fmt.Printf("« received %s %s from %s via %s: %q\n",
				m.Kind, m.Ref(), m.Author, from, trim(m.Payload))
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	if nonces := node.ReplayState(); nonces > 0 {
		log.Info("resumed replay store", "envelopeNonces", nonces, "dir", replayDir)
	}

	// The debug surface: /metrics (Prometheus text), /healthz (JSON
	// liveness), /debug/trace (the span flight recorder as Chrome
	// trace_event JSON), /debug/pprof/* — every layer's counters bridged
	// at scrape time, costing the hot paths nothing.
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterNodeMetrics(reg, obs.NodeMetrics{
			Middleware: node,
			Medium:     medium,
			Exporter:   exporter,
		})
		dbg, err := obs.NewServer(obs.ServerConfig{
			Addr:     *debugAddr,
			Registry: reg,
			Tracer:   tracer,
			Log:      log,
			Health: func() map[string]any {
				s := node.Stats()
				doc := map[string]any{
					"peer":          string(node.Peer()),
					"user":          node.User().String(),
					"scheme":        node.Scheme(),
					"activeLinks":   len(node.ActiveLinks()),
					"storeMessages": s.Store.Messages,
					"storeBytes":    s.Store.Bytes,
				}
				if exporter != nil {
					es := exporter.Stats()
					doc["telemetryDropped"] = es.Dropped
					doc["telemetryReconnects"] = es.Reconnects
					doc["telemetryQueueDepth"] = exporter.QueueDepth()
				}
				return doc
			},
		})
		if err != nil {
			return err
		}
		defer dbg.Close()
	}

	log.Info("node up",
		"peer", string(node.Peer()), "user", node.User().String(),
		"beacons", strings.Join(medium.BeaconAddrs(), ","), "scheme", node.Scheme())

	for _, target := range strings.Split(*follow, ",") {
		target = strings.TrimSpace(target)
		if target == "" {
			continue
		}
		if err := followTarget(node, target); err != nil {
			return err
		}
	}
	if *post != "" {
		m, err := node.Post([]byte(*post))
		if err != nil {
			return err
		}
		fmt.Printf("» posted %s\n", m.Ref())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	lines := make(chan string)
	go func() {
		scanner := bufio.NewScanner(os.Stdin)
		for scanner.Scan() {
			lines <- scanner.Text()
		}
		close(lines)
	}()

	for {
		select {
		case <-sigs:
			log.Info("shutting down", "reason", "signal")
			return nil
		case line, ok := <-lines:
			if !ok {
				return nil
			}
			if quit := command(node, exporter, line); quit {
				return nil
			}
		}
	}
}

// storageDirs maps the storage flags to the node's durable directories:
// the message database and, beside it, the replay store (seen envelope
// nonces), so that whatever resumes the one across a restart resumes the
// other. Both are empty for -store mem.
func storageDirs(kind, storeDir, credsPath string) (store, replay string, err error) {
	switch kind {
	case "mem":
		return "", "", nil
	case "disk":
		if storeDir == "" {
			storeDir = credsPath + ".store"
		}
		return storeDir, filepath.Join(storeDir, "replay"), nil
	default:
		return "", "", fmt.Errorf("unknown -store %q (want mem or disk)", kind)
	}
}

// replObserver prints the REPL's contact lines; receipts print from
// NodeConfig.OnReceive.
type replObserver struct{}

func (replObserver) MessageCreated(*sos.Message)                    {}
func (replObserver) MessageReceived(*sos.Message, sos.UserID, bool) {}
func (replObserver) MessageEvicted(sos.Eviction)                    {}

func (replObserver) ContactUp(user sos.UserID) {
	fmt.Printf("« peer up: %s (certificate verified)\n", user)
}

func (replObserver) ContactDown(user sos.UserID) {
	fmt.Printf("« peer down: %s\n", user)
}

// command dispatches one REPL line; it reports whether to quit.
func command(node *sos.Node, exporter *telemetry.Exporter, line string) bool {
	verb, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	rest = strings.TrimSpace(rest)
	switch verb {
	case "":
	case "post":
		if rest == "" {
			fmt.Println("usage: post <text>")
			break
		}
		m, err := node.Post([]byte(rest))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("» posted %s\n", m.Ref())
	case "follow":
		if err := followTarget(node, rest); err != nil {
			fmt.Println("error:", err)
		}
	case "peers":
		st := node.Store()
		fmt.Printf("store: %d messages from %d authors; subscriptions:\n", st.Len(), len(st.Authors()))
		for _, u := range st.Subscriptions() {
			fmt.Printf("  follows %s (have up to seq %d)\n", u, st.MaxSeq(u))
		}
	case "stats":
		// The live-inspection view: what the node holds and how it
		// routes, without needing a telemetry collector attached.
		s := node.Stats()
		fmt.Printf("scheme:  %s (available: %s)\n", node.Scheme(), strings.Join(node.Schemes(), ", "))
		fmt.Printf("store:   %d messages, %d bytes (gen %d)\n", s.Store.Messages, s.Store.Bytes, s.Store.Generation)
		fmt.Printf("         %d puts, %d duplicates, %d evictions, %d expirations, %d bytes evicted\n",
			s.Store.Puts, s.Store.Duplicates, s.Store.Evictions, s.Store.Expirations, s.Store.EvictedBytes)
		fmt.Printf("adhoc:   %+v\nmessage: %+v\npki:     %+v\n", s.Adhoc, s.Message, s.PKI)
		peers, links, entries := node.SyncState()
		fmt.Printf("sync:    %d peers known, %d linked, %d summary entries cached\n", peers, links, entries)
		fmt.Printf("sync-io: %d summary chunks sent, %d plan entries scanned, %d stripe lock waits\n",
			s.Message.SummaryChunksSent, s.Message.PlanEntriesScanned, s.Store.StripeLockWaits)
		if exporter != nil {
			es := exporter.Stats()
			fmt.Printf("telemetry: %d recorded, %d sent, %d dropped, %d reconnects, %d queued\n",
				es.Recorded, es.Sent, es.Dropped, es.Reconnects, exporter.QueueDepth())
		}
	case "quit", "exit":
		return true
	default:
		fmt.Println("commands: post <text> | follow <handle-or-id> | peers | stats | quit")
	}
	return false
}

// followTarget subscribes to a user given as a handle or a user-id
// display string and disseminates the follow action.
func followTarget(node *sos.Node, target string) error {
	if target == "" {
		return fmt.Errorf("usage: follow <handle-or-id>")
	}
	user, err := sos.ParseUserID(target)
	if err != nil {
		// Not an id display string: treat it as a handle, which maps to
		// the same identifier the cloud would assign.
		user = sos.NewUserID(target)
	}
	if _, err := node.Follow(user); err != nil {
		return err
	}
	fmt.Printf("» following %s (%s)\n", target, user)
	return nil
}

// trim bounds payload echo in logs.
func trim(b []byte) string {
	if len(b) > 60 {
		return string(b[:57]) + "..."
	}
	return string(b)
}
