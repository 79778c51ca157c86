package main

import (
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
