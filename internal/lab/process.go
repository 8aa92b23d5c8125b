package lab

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/obs"
)

// processFleet runs every node as a real sosd child process over
// loopback: each child binds its own UDP beacon socket and TCP session
// listener, discovers the others through explicit unicast beacon
// targets, and streams telemetry back over TCP. Churn stops and restarts
// whole processes — every child keeps a disk store, so a waking node
// resumes its message database, exactly like a phone returning from
// sleep.
type processFleet struct {
	env   liveEnv
	sosd  string
	procs []*childProc
}

// childProc is one sosd child process.
type childProc struct {
	handle     string
	user       id.UserID
	credsPath  string
	storeDir   string
	beaconAddr string
	// debugAddr is where the running child's debug server listens: the
	// child binds an ephemeral port and logs it, so it changes on every
	// restart.
	debugAddr string
	follows   []string
	restarts  int

	cmd   *exec.Cmd
	stdin io.WriteCloser
	// exited is closed once cmd.Wait has returned.
	exited chan struct{}
}

// running reports whether the child is currently alive.
func (p *childProc) running() bool { return p.cmd != nil }

func (f *processFleet) start(env liveEnv) error {
	spec := env.spec
	f.env = env
	f.sosd = env.opts.SosdPath
	if f.sosd == "" {
		f.sosd = "sosd"
	}
	if _, err := exec.LookPath(f.sosd); err != nil {
		return fmt.Errorf("lab: sosd binary not found (%w); build it with 'go build ./cmd/sosd' and pass its path", err)
	}

	// One credentials file per handle, for the child to load.
	for i, handle := range spec.Handles {
		credsPath := filepath.Join(env.workDir, handle+".creds")
		if err := cloud.SaveCredentials(env.creds[i], credsPath); err != nil {
			return err
		}
		port, err := freeUDPPort()
		if err != nil {
			return err
		}
		f.procs = append(f.procs, &childProc{
			handle:     handle,
			user:       env.creds[i].Ident.User,
			credsPath:  credsPath,
			storeDir:   filepath.Join(env.workDir, handle+".store"),
			beaconAddr: fmt.Sprintf("127.0.0.1:%d", port),
		})
	}
	for _, e := range spec.FollowEdges() {
		follower := f.procs[e[0]]
		follower.follows = append(follower.follows, spec.Handles[e[1]])
	}
	for _, p := range f.procs {
		if err := f.startChild(p); err != nil {
			return err
		}
	}
	return nil
}

func (f *processFleet) post(node int, body string) error {
	p := f.procs[node]
	if _, err := fmt.Fprintf(p.stdin, "post %s\n", body); err != nil {
		return fmt.Errorf("lab: posting via %s: %w", p.handle, err)
	}
	return nil
}

func (f *processFleet) setAwake(node int, awake bool) error {
	p := f.procs[node]
	if !awake {
		f.stopChild(p, 5*time.Second)
		return nil
	}
	p.restarts++
	return f.startChild(p)
}

// gauges has nothing to read: the children's internals live behind
// their debug servers, and the collector side is read by runLive.
func (f *processFleet) gauges() timelineSample { return timelineSample{} }

func (f *processFleet) stop() ([]NodeReport, *ChaosReport) {
	// Final observability sweep: scrape each live child's /metrics over
	// HTTP — the same surface an operator's Prometheus would hit —
	// before asking it to quit.
	reports := make([]NodeReport, 0, len(f.procs))
	for _, p := range f.procs {
		nr := NodeReport{Handle: p.handle, User: p.user.String(), Restarts: p.restarts}
		if p.running() {
			m, err := obs.ScrapeProm(nil, "http://"+p.debugAddr)
			if err != nil {
				f.env.opts.logf("lab: scraping %s metrics: %v", p.handle, err)
			}
			nr.Metrics = m
		}
		reports = append(reports, nr)
	}
	// Graceful teardown: "quit" lets each sosd close its node and flush
	// its telemetry exporter before the collector stops reading.
	for _, p := range f.procs {
		if p.running() {
			f.stopChild(p, 10*time.Second)
		}
	}
	return reports, nil
}

// startChild spawns one sosd process wired to the rest of the fleet.
func (f *processFleet) startChild(p *childProc) error {
	spec := f.env.spec
	var targets []string
	for _, other := range f.procs {
		if other != p {
			targets = append(targets, other.beaconAddr)
		}
	}
	args := []string{
		"run",
		"-creds", p.credsPath,
		"-name", p.handle,
		"-scheme", spec.Scheme,
		"-beacon-listen", p.beaconAddr,
		"-beacon-targets", strings.Join(targets, ","),
		"-listen-ip", "127.0.0.1",
		"-beacon-interval", spec.BeaconInterval.D().String(),
		"-loss-timeout", spec.lossTimeout().String(),
		"-telemetry", f.env.collector,
		"-debug-addr", "127.0.0.1:0",
		"-store", "disk",
		"-store-dir", p.storeDir,
	}
	if spec.Store.Quota > 0 {
		args = append(args, "-quota", fmt.Sprint(spec.Store.Quota))
	}
	if spec.Store.Policy != "" {
		args = append(args, "-evict", spec.Store.Policy)
	}
	if spec.Store.RelayTTL > 0 {
		args = append(args, "-relay-ttl", spec.Store.RelayTTL.D().String())
	}
	if len(p.follows) > 0 {
		args = append(args, "-follow", strings.Join(p.follows, ","))
	}

	cmd := exec.Command(f.sosd, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("lab: stdin pipe for %s: %w", p.handle, err)
	}
	// A plain Writer (not StdoutPipe) lets exec own the copy goroutine,
	// so Wait blocks until the child's final output — the shutdown and
	// flush diagnostics — has been logged in full.
	debugAddr := make(chan string, 1)
	out := &lineWriter{logf: f.env.opts.logf, prefix: p.handle, debugAddr: debugAddr}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("lab: starting sosd for %s: %w", p.handle, err)
	}
	p.cmd = cmd
	p.stdin = stdin
	p.exited = make(chan struct{})
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	// The child is up once its debug server has bound and said where.
	timeout := time.NewTimer(childStartTimeout)
	defer timeout.Stop()
	select {
	case p.debugAddr = <-debugAddr:
		return nil
	case <-p.exited:
	case <-timeout.C:
		cmd.Process.Kill()
		<-p.exited
	}
	// Wait has returned, so the writer is done with out.startup.
	p.cmd, p.stdin = nil, nil
	return fmt.Errorf("lab: sosd for %s exited before its debug server came up (waited at most %s):\n%s",
		p.handle, childStartTimeout, strings.Join(out.startup, "\n"))
}

// childStartTimeout bounds how long a child may take to bind its debug
// server after it starts.
const childStartTimeout = 15 * time.Second

// debugListening is the message the child's debug server logs, with its
// bound address in an addr attribute, once it listens.
const debugListening = `msg="debug server listening"`

// lineWriter forwards a child's output to the lab log one line at a
// time, buffering partial lines across writes. Until the child logs its
// debug address, it also keeps the lines (startup) and then hands the
// address to debugAddr, once.
type lineWriter struct {
	logf      func(format string, args ...any)
	prefix    string
	buf       []byte
	startup   []string
	debugAddr chan string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		nl := bytes.IndexByte(w.buf, '\n')
		if nl < 0 {
			return len(p), nil
		}
		line := strings.TrimRight(string(w.buf[:nl]), "\r")
		w.buf = w.buf[nl+1:]
		w.logf("[%s] %s", w.prefix, line)
		if w.debugAddr == nil {
			continue
		}
		w.startup = append(w.startup, line)
		if addr, ok := debugAddrOf(line); ok {
			w.debugAddr <- addr
			w.debugAddr = nil
		}
	}
}

// debugAddrOf extracts the address from the child's debug-server log line
// (slog text format: key=value pairs separated by spaces).
func debugAddrOf(line string) (string, bool) {
	if !strings.Contains(line, debugListening) {
		return "", false
	}
	_, addr, ok := strings.Cut(line, " addr=")
	if !ok {
		return "", false
	}
	addr, _, _ = strings.Cut(addr, " ")
	return addr, addr != ""
}

// stopChild asks a sosd process to quit and waits, escalating to a kill
// after the grace period.
func (f *processFleet) stopChild(p *childProc, grace time.Duration) {
	if p.cmd == nil {
		return
	}
	fmt.Fprintln(p.stdin, "quit")
	p.stdin.Close()
	select {
	case <-p.exited:
	case <-time.After(grace):
		f.env.opts.logf("lab: %s did not quit in %s; killing", p.handle, grace)
		p.cmd.Process.Kill()
		<-p.exited
	}
	p.cmd = nil
	p.stdin = nil
}

// freeUDPPort reserves an ephemeral loopback UDP port and releases it for
// the child to bind. Unlike the debug port, a beacon port must be known
// before the child starts, because its siblings are told to beacon to it;
// another process may take the port between the claim and the bind.
func freeUDPPort() (int, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("lab: reserving beacon port: %w", err)
	}
	port := conn.LocalAddr().(*net.UDPAddr).Port
	conn.Close()
	return port, nil
}
