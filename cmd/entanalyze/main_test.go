package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// openFDs counts this process's descriptors (-1 where /proc is absent).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
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
	stop := serveOn(ln, srv)
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
	stop()
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

// TestUsageErrors drives run down every bad invocation it can refuse:
// each is a *usageError (exit 2), returned before anything is opened,
// listened on or written to stdout.
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
		{"on-error", []string{"-on-error", "retry", "x.pcap"}, "unknown -on-error"},
		{"inject", []string{"-inject", "melt@3", "x.pcap"}, "melt"},
		{"monitored", []string{"-monitored", "128.3/16", "x.pcap"}, "128.3/16"},
		{"gen-dataset", []string{"-gen", "default", "-gen-dataset", "D9"}, "unknown -gen-dataset"},
		{"gen spec", []string{"-gen", "steady"}, "steady"},
		{"duration without gen", []string{"-duration", "1m", "x.pcap"}, "require -gen"},
		{"gen-dataset without gen", []string{"-gen-dataset", "D1", "x.pcap"}, "require -gen"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if _, ok := err.(*usageError); !ok {
				t.Fatalf("run(%q) = %v, want a *usageError", tc.args, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %q, want it to mention %q", tc.args, err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%q) wrote to stdout: %q", tc.args, stdout.String())
			}
		})
	}
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &stderr); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 22 {
		t.Errorf("-h lists %d flags, want 22:\n%s", n, stderr.String())
	}
}
