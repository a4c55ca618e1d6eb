package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeLoadAndGracefulDrain drives the binary's real code paths end to
// end: serve on a loopback port, complete a -load run (64 replays, 8
// clients, byte-identity asserted against the offline replay inside
// RunLoad), scrape /metrics, then SIGTERM the process and require a clean
// drain.
func TestServeLoadAndGracefulDrain(t *testing.T) {
	tr, err := os.ReadFile("../../trace/testdata/faulted.trace")
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "faulted.trace")
	if err := os.WriteFile(tracePath, tr, 0o644); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- serveOn(ln, serve.New(serve.Config{}), 30*time.Second) }()

	if err := runLoad(loadArgs{url: url, traceFile: tracePath, n: 64, c: 8}); err != nil {
		t.Fatalf("load run: %v", err)
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "pgserved_replays_total 64") {
		t.Fatalf("/metrics missing the 64 completed replays:\n%s", body)
	}

	// SIGTERM to ourselves exercises the signal handler inside serveOn.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveOn returned %v, want clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveOn did not drain after SIGTERM")
	}
}

// TestLoadFlagsValidated: load mode refuses to run without its inputs.
func TestLoadFlagsValidated(t *testing.T) {
	if err := runLoad(loadArgs{traceFile: "x", n: 1, c: 1}); err == nil {
		t.Fatal("missing -url accepted")
	}
	if err := runLoad(loadArgs{url: "http://127.0.0.1:1", n: 1, c: 1}); err == nil {
		t.Fatal("missing -trace accepted")
	}
}

// TestRemovedServingPathsRefused: the shipped configuration is the only one.
// -snapshots=false and a cache below one entry are refused, each naming what
// was removed; main exits 2 on either.
func TestRemovedServingPathsRefused(t *testing.T) {
	if err := checkServingFlags(true, 1024); err != nil {
		t.Fatalf("shipped flags refused: %v", err)
	}
	for _, tc := range []struct {
		snapshots bool
		cache     int
		want      string
	}{
		{false, 1024, "fresh-machine serving path was removed"},
		{true, 0, "can no longer be disabled"},
		{true, -1, "can no longer be disabled"},
	} {
		err := checkServingFlags(tc.snapshots, tc.cache)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-snapshots=%v -cache=%d: error %v, want one naming %q", tc.snapshots, tc.cache, err, tc.want)
		}
	}
}
