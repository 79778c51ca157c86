package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// d3 is four D3 subnets at scale 0.1 written as pcaps — the split
// scripts/fleet_smoke.sh ships as two sites — once per test binary, for
// the tests that read trace files.
var d3 struct {
	once  sync.Once
	dir   string
	paths []string
	err   error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if d3.dir != "" {
		os.RemoveAll(d3.dir)
	}
	os.Exit(code)
}

func d3Traces(t *testing.T) []string {
	t.Helper()
	d3.once.Do(func() {
		if d3.dir, d3.err = os.MkdirTemp("", "entanalyze-test"); d3.err != nil {
			return
		}
		cfg := enterprise.D3()
		cfg.Scale = 0.1
		cfg.Monitored = cfg.Monitored[:4]
		for _, tr := range gen.GenerateDataset(cfg).Traces {
			path := filepath.Join(d3.dir, fmt.Sprintf("D3-subnet%02d-tap%d.pcap", tr.Subnet, tr.Tap))
			f, err := os.Create(path)
			if err != nil {
				d3.err = err
				return
			}
			w := bufio.NewWriter(f)
			d3.err = errors.Join(gen.WriteTrace(w, cfg, tr), w.Flush(), f.Close())
			if d3.err != nil {
				return
			}
			d3.paths = append(d3.paths, path)
		}
	})
	if d3.err != nil {
		t.Fatal(d3.err)
	}
	if len(d3.paths) != 4 {
		t.Fatalf("generated %d D3 traces, want 4", len(d3.paths))
	}
	return d3.paths
}

// syncBuffer is a writer that run's goroutines write while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// started is run on its own goroutine, as main runs it.
type started struct {
	stdout, stderr syncBuffer
	cancel         context.CancelFunc
	finished       chan struct{}
	err            error // run's result, once finished is closed
}

func start(t *testing.T, args ...string) *started {
	ctx, cancel := context.WithCancel(context.Background())
	r := &started{cancel: cancel, finished: make(chan struct{})}
	go func() {
		defer close(r.finished)
		r.err = run(ctx, args, &r.stdout, &r.stderr)
	}()
	t.Cleanup(func() { cancel(); <-r.finished })
	return r
}

// stop cancels the run's ctx, where main would on SIGTERM, and returns
// what run returned.
func (r *started) stop() error {
	r.cancel()
	<-r.finished
	return r.err
}

// await returns the first submatch of pattern in the run's stderr,
// waiting for it to be printed.
func (r *started) await(t *testing.T, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := re.FindStringSubmatch(r.stderr.String()); m != nil {
			return m[1]
		}
		select {
		case <-r.finished:
			t.Fatalf("run returned %v without printing %q; stderr:\n%s", r.err, pattern, r.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q on stderr:\n%s", pattern, r.stderr.String())
		}
	}
}

// noneLeft fails the test unless the goroutine count falls back to n,
// the count before run started, printing every stack that is left.
func noneLeft(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive run, %d before it:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
	}
}

// openFDs counts this process's descriptors (-1 where /proc is absent).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// deadAddr is a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	return ln.Addr().String()
}

// TestServeStopLeavesNothingBehind polls a served run over keep-alive
// connections and stops the server the way both modes' drain paths do:
// once stop returns the port refuses connections, and within a second no
// serving goroutine and no descriptor — listener, accepted connections,
// the client's ends — is left.
func TestServeStopLeavesNothingBehind(t *testing.T) {
	base := time.Date(2005, 1, 6, 9, 0, 0, 0, time.UTC)
	em := gen.NewEmitter(1)
	for i, off := range []time.Duration{0, 70 * time.Second, 130 * time.Second} {
		em.TCPSession(gen.TCPOpts{
			Client: enterprise.InternalHost(5, 10+i), Server: enterprise.InternalHost(5, 200),
			ClientPort: uint16(40000 + i), ServerPort: 9999,
			Start: base.Add(off), RTT: time.Millisecond,
			Turns: []gen.Turn{{FromClient: true, Data: []byte("ping")}, {Data: []byte("pong")}},
		})
	}
	a := core.NewAnalyzer(core.Options{Dataset: "serve", PayloadAnalysis: true, Window: time.Minute})
	if err := a.AddTrace(core.TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	srv := core.NewReportServer(a)
	if err := srv.SetFinal(a.Report()); err != nil {
		t.Fatal(err)
	}

	fdsBefore := openFDs()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serveOn(ln, srv)
	// Two clients, so the server holds more than one idle connection
	// when it is told to stop.
	clients := []*http.Client{{Transport: &http.Transport{}}, {Transport: &http.Transport{}}}
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/healthz", "/report/latest", "/report/window/0", "/report/final"} {
			resp, err := clients[i%2].Get(fmt.Sprintf("http://%s%s", ln.Addr(), path))
			if err != nil {
				t.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 || n != resp.ContentLength {
				t.Fatalf("%s: status %d, %d bytes of %d declared, %v", path, resp.StatusCode, n, resp.ContentLength, err)
			}
		}
	}
	if s.stop(&err); err != nil {
		t.Fatalf("stop = %v, want nil after a clean serve", err)
	}
	if c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Error("the port still accepts connections after stop")
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}

	var stacks string
	fds := 0
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		stacks = string(buf[:runtime.Stack(buf, true)])
		fds = openFDs()
		if !strings.Contains(stacks, "net/http.") && fds <= fdsBefore {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("a second after stop: %d descriptors open, %d before serving; goroutines:\n%s", fds, fdsBefore, stacks)
}

// failingListener fails every Accept with an error that is not
// temporary, so http.Server.Serve gives up at once.
type failingListener struct{ net.Listener }

func (failingListener) Accept() (net.Conn, error) {
	return nil, errors.New("accept: too many open files")
}

// TestServeFailureIsReturned: serving that fails after a successful
// listen ends at once, and stop hands back why, instead of the process
// exiting from the serving goroutine.
func TestServeFailureIsReturned(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serveOn(failingListener{ln}, http.NotFoundHandler())
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("serving did not end when Accept failed")
	}
	if s.stop(&err); err == nil || !strings.Contains(err.Error(), "too many open files") {
		t.Errorf("stop = %v, want the accept error", err)
	}
}

// TestUsageErrors drives run down every bad invocation it can refuse:
// each is a *usageError (exit 2), returned before anything is opened,
// listened on, started or written to stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // a fragment of the message
	}{
		{"unknown flag", []string{"-mmap", "x.pcap"}, "flag provided but not defined: -mmap"},
		{"flag value", []string{"-workers", "two", "x.pcap"}, "invalid value"},
		{"format", []string{"-format", "xml", "x.pcap"}, "unknown -format"},
		{"aggregate with traces", []string{"-aggregate", ":0", "x.pcap"}, "-aggregate runs a standalone"},
		{"aggregate with gen", []string{"-aggregate", ":0", "-gen", "default"}, "-aggregate runs a standalone"},
		{"aggregate with ship", []string{"-aggregate", ":0", "-ship", ":1", "-site", "a"}, "-aggregate runs a standalone"},
		{"expect-sites alone", []string{"-expect-sites", "a", "x.pcap"}, "require -aggregate"},
		{"stale-after alone", []string{"-stale-after", "5s", "x.pcap"}, "require -aggregate"},
		{"no input", nil, "usage: entanalyze"},
		{"traces and gen", []string{"-gen", "default", "x.pcap"}, "usage: entanalyze"},
		{"ship without site", []string{"-ship", ":1", "x.pcap"}, "-ship and -site go together"},
		{"site without ship", []string{"-site", "a", "x.pcap"}, "-ship and -site go together"},
		{"trace-base without ship", []string{"-trace-base", "3", "x.pcap"}, "-trace-base only applies"},
		{"window-origin without window", []string{"-window-origin", "2005-01-06T09:00:00Z", "x.pcap"}, "-window-origin requires -window"},
		{"window-origin unparseable", []string{"-window", "60s", "-window-origin", "noon", "x.pcap"}, "-window-origin:"},
		{"windowed ship without origin", []string{"-ship", ":1", "-site", "a", "-window", "60s", "x.pcap"}, "needs -window-origin"},
		{"on-error", []string{"-serve", "127.0.0.1:0", "-on-error", "retry", "x.pcap"}, "unknown -on-error"},
		{"inject", []string{"-ship", ":1", "-site", "a", "-inject", "melt@3", "x.pcap"}, "melt"},
		{"inject wire kind", []string{"-inject", "drop@3", "x.pcap"}, "drop counts frames sent, not packets read"},
		{"inject wire random", []string{"-inject", "netrand:1:5:20", "x.pcap"}, "frames sent"},
		{"monitored", []string{"-monitored", "128.3/16", "x.pcap"}, "128.3/16"},
		{"gen-dataset", []string{"-gen", "default", "-gen-dataset", "D9"}, "unknown -gen-dataset"},
		{"gen spec", []string{"-gen", "steady", "-serve", "127.0.0.1:0"}, "steady"},
		{"duration without gen", []string{"-duration", "1m", "x.pcap"}, "require -gen"},
		{"gen-dataset without gen", []string{"-gen-dataset", "D1", "x.pcap"}, "require -gen"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs()
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), tc.args, &stdout, &stderr)
			if _, ok := err.(*usageError); !ok {
				t.Fatalf("run(%q) = %v, want a *usageError", tc.args, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %q, want it to mention %q", tc.args, err, tc.want)
			}
			if stdout.Len() != 0 || stderr.Len() != 0 {
				t.Errorf("run(%q) wrote %q to stdout and %q to stderr", tc.args, stdout.String(), stderr.String())
			}
			if n, f := runtime.NumGoroutine(), openFDs(); n > goroutines || f > fds {
				t.Errorf("run(%q) left %d goroutines (%d before) and %d descriptors (%d before)", tc.args, n, goroutines, f, fds)
			}
		})
	}
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, io.Discard, &stderr); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 22 {
		t.Errorf("-h lists %d flags, want 22:\n%s", n, stderr.String())
	}
}

// TestAnalyzeMatchesLibrary holds the file path of the analyze mode to
// the library: run's JSON is byte for byte what an Analyzer with the same
// options writes after reading the same files through AddTraceReader.
func TestAnalyzeMatchesLibrary(t *testing.T) {
	paths := d3Traces(t)[:2]
	before := runtime.NumGoroutine()
	var stdout bytes.Buffer
	if err := run(context.Background(), append([]string{"-format", "json", "-window", "60s"}, paths...), &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	noneLeft(t, before)

	a := core.NewAnalyzer(core.Options{
		Dataset:         "pcap",
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: true,
		Window:          time.Minute,
	})
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = a.AddTraceReader(path, netip.MustParsePrefix("128.3.0.0/16"), f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := core.WriteRunJSON(&want, a.WindowReports(), a.Report()); err != nil {
		t.Fatal(err)
	}
	if len(a.WindowReports()) < 2 {
		t.Fatalf("the reference run has %d windows; the comparison needs several", len(a.WindowReports()))
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("run wrote %d bytes of JSON, the library %d, and they differ", stdout.Len(), want.Len())
	}
}

// health is the part of /healthz the serve tests read.
type health struct {
	Status           string
	Watermark        string
	CompletedWindows int
	FinalReady       bool
	SourceErrors     int64
}

// TestGenServeDrain streams a generated schedule with live serving, as
// a soak does: the run stays healthy while the watermark advances and
// windows complete, the final report is served, and cancelling ctx —
// where main would on SIGTERM — drains it to a nil return. Under fault
// injection the run degrades honestly instead: /healthz says so while
// it answers, and the folded census matches the injected manifest.
func TestGenServeDrain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		extra  []string
		status string
		errors int64 // at least this many live source errors
	}{
		{"clean", nil, "ok", 0},
		{"injected", []string{"-on-error", "skip", "-inject", "read@50,short@120:40,read@300",
			"-idle-evict", "2m", "-max-conns", "10000"}, "degraded", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := start(t, append([]string{"-gen", "ramp:10s:0-60,burst:10s:120,steady:10s:60",
				"-gen-dataset", "D3", "-window", "10s", "-serve", "127.0.0.1:0"}, tc.extra...)...)
			url := "http://" + r.await(t, `serving reports on http://(\S+) `)
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			get := func(path string) (int, []byte) {
				t.Helper()
				resp, err := client.Get(url + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, b
			}

			var h health
			for deadline := time.Now().Add(60 * time.Second); !h.FinalReady; time.Sleep(20 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the final report never became ready: %+v; stderr:\n%s", h, r.stderr.String())
				}
				if code, b := get("/healthz"); code != http.StatusOK || json.Unmarshal(b, &h) != nil {
					t.Fatalf("/healthz answered %d: %s", code, b)
				}
			}
			if h.Status != tc.status || h.Watermark == "" || h.CompletedWindows < 2 || h.SourceErrors < tc.errors {
				t.Errorf("/healthz = %+v, want Status %q, a watermark, ≥ 2 completed windows and ≥ %d source errors",
					h, tc.status, tc.errors)
			}
			if code, _ := get("/report/final"); code != http.StatusOK {
				t.Errorf("/report/final answered %d", code)
			}
			census := strings.Contains(r.stderr.String(), "fault census: report matches injected manifest")
			if census != (tc.errors > 0) {
				t.Errorf("census match line printed: %v, want %v; stderr:\n%s", census, tc.errors > 0, r.stderr.String())
			}

			client.CloseIdleConnections()
			if err := r.stop(); err != nil {
				t.Fatalf("run = %v after cancel, want nil", err)
			}
			if !strings.Contains(r.stderr.String(), "signal: draining") {
				t.Errorf("no drain line on stderr:\n%s", r.stderr.String())
			}
			noneLeft(t, before)
		})
	}
}

// TestShipAggregateMatchesSingleRun is the fleet fold over the real
// wire: two sites ship two traces each to an aggregator, and once its
// ctx is cancelled the aggregator's report is byte for byte a single
// run's over all four traces.
func TestShipAggregateMatchesSingleRun(t *testing.T) {
	paths := d3Traces(t)
	before := runtime.NumGoroutine()
	clock := []string{"-window", "60s", "-window-origin", "2005-01-06T00:00:00Z"}
	var single bytes.Buffer
	if err := run(context.Background(), append(append([]string{"-format", "json"}, clock...), paths...), &single, io.Discard); err != nil {
		t.Fatal(err)
	}

	agg := start(t, "-aggregate", "127.0.0.1:0", "-expect-sites", "site-a,site-b", "-format", "json")
	addr := agg.await(t, `fleet aggregator listening on (\S+)`)
	for i, site := range []string{"site-a", "site-b"} {
		args := append([]string{"-ship", addr, "-site", site, "-trace-base", strconv.Itoa(2 * i)}, clock...)
		if err := run(context.Background(), append(args, paths[2*i:2*i+2]...), io.Discard, io.Discard); err != nil {
			t.Fatalf("%s: %v", site, err)
		}
	}
	if err := agg.stop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(agg.stderr.String(), "signal: draining") || strings.Contains(agg.stderr.String(), "fleet incomplete") {
		t.Errorf("aggregator stderr:\n%s", agg.stderr.String())
	}
	if got := agg.stdout.String(); got != single.String() {
		t.Errorf("the fleet report (%d bytes) differs from the single run's (%d bytes)", len(got), single.Len())
	}
	noneLeft(t, before)
}

// TestErrorReturnsLeaveNothingRunning: a run that fails once it is
// shipping, serving or aggregating stops all of it before it returns —
// no shipper dialling a dead aggregator, no heartbeat, no aggregator
// still accepting on its port.
func TestErrorReturnsLeaveNothingRunning(t *testing.T) {
	trace := d3Traces(t)[0]
	missing := filepath.Join(t.TempDir(), "missing.pcap")
	ship := []string{"-ship", deadAddr(t), "-site", "a", "-window", "60s", "-window-origin", "2005-01-06T00:00:00Z"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"ship then missing trace", append(ship[:len(ship):len(ship)], trace, missing), "missing.pcap"},
		{"ship then serve fails", append(ship[:len(ship):len(ship)], "-serve", "bad-address", trace), "bad-address"},
		{"aggregate then serve fails", []string{"-aggregate", "127.0.0.1:0", "-serve", "bad-address"}, "bad-address"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var stderr syncBuffer
			err := run(context.Background(), tc.args, io.Discard, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error naming %q", err, tc.want)
			}
			if m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(stderr.String()); m != nil {
				if c, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
					c.Close()
					t.Errorf("the aggregator still accepts on %s", m[1])
				}
			}
			noneLeft(t, before)
		})
	}
}
