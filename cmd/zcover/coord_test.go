package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"zcover/internal/coord"
)

// relay forwards every worker request to the coordinator at base. hold,
// when non-nil, runs before a request is forwarded; seen gets the path
// and reply body of each forwarded request.
func relay(base string, hold func(path string), seen func(path string, body []byte)) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hold != nil {
			hold(r.URL.Path)
		}
		resp, err := http.Post(base+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		seen(r.URL.Path, body)
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
}

// leaseReply decodes a /lease reply body; other paths yield the zero
// reply.
func leaseReply(path string, body []byte) coord.LeaseReply {
	var reply coord.LeaseReply
	if path == "/lease" {
		json.Unmarshal(body, &reply)
	}
	return reply
}

// TestCoordinateAndWorkCLI drives the distributed path end to end from
// the CLI with default shutdown timing: a coordinator on an ephemeral
// port (discovered through -addr-file, exactly as the CI scripts do) and
// two workers draining it, the rendered table + bug log landing on disk.
// Worker "holder" keeps its first upload back until worker "parked" has
// been told to retry later, so the campaign completes while "parked"
// sleeps on the hint: its next poll must still find the coordinator
// serving, and hear done.
func TestCoordinateAndWorkCLI(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	tableOut := filepath.Join(dir, "table.txt")
	buglogOut := filepath.Join(dir, "bugs.jsonl")
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- run([]string{"coordinate", "-campaign", "smoke",
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-checkpoint-dir", filepath.Join(dir, "coord"),
			"-lease-ttl", "5s",
			"-table-out", tableOut, "-buglog-out", buglogOut})
	}()
	var addr string
	for i := 0; i < 500 && addr == ""; i++ {
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatal("coordinator never published its address")
	}
	base := "http://" + addr

	leased, parked := make(chan struct{}), make(chan struct{})
	var leasedOnce, parkedOnce sync.Once
	holder := relay(base, func(path string) {
		if path != "/result" {
			return
		}
		select {
		case <-parked:
		case <-time.After(30 * time.Second):
		}
	}, func(path string, body []byte) {
		if leaseReply(path, body).Job != nil {
			leasedOnce.Do(func() { close(leased) })
		}
	})
	defer holder.Close()
	parker := relay(base, nil, func(path string, body []byte) {
		if leaseReply(path, body).RetryAfter > 0 {
			parkedOnce.Do(func() { close(parked) })
		}
	})
	defer parker.Close()

	workErr := make(chan error, 2)
	go func() {
		workErr <- run([]string{"work", "-coordinator", holder.URL, "-id", "holder"})
	}()
	<-leased
	// A parked worker that finds the coordinator gone retries for its
	// whole budget; a short one makes that failure quick.
	go func() {
		workErr <- run([]string{"work", "-coordinator", parker.URL, "-id", "parked", "-retry-budget", "2s"})
	}()
	for i := 0; i < 2; i++ {
		if err := <-workErr; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	select {
	case <-parked:
	default:
		t.Fatal("no worker was ever parked on retry-after — the scenario did not run")
	}
	tbl, err := os.ReadFile(tableOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tbl), "Coordinator smoke campaign") {
		t.Fatalf("table out malformed:\n%s", tbl)
	}
	bugs, err := os.ReadFile(buglogOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(bugs) == 0 {
		t.Fatal("bug log empty — the smoke campaign should surface findings")
	}
}

func TestCoordinateAndWorkRejectBadInputs(t *testing.T) {
	if err := run([]string{"coordinate"}); err == nil ||
		!strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("coordinate without -checkpoint-dir: %v", err)
	}
	if err := run([]string{"coordinate", "-campaign", "sideways",
		"-checkpoint-dir", t.TempDir()}); err == nil {
		t.Fatal("accepted unknown campaign")
	}
	if err := run([]string{"coordinate", "-fuzz", "-1h",
		"-checkpoint-dir", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "-fuzz") {
		t.Fatalf("coordinate -fuzz -1h: %v", err)
	}
	if err := run([]string{"work"}); err == nil ||
		!strings.Contains(err.Error(), "-coordinator") {
		t.Fatalf("work without -coordinator: %v", err)
	}
}
