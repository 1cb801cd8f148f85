package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCoordinateAndWorkCLI drives the distributed path end to end from
// the CLI: a coordinator on an ephemeral port (discovered through
// -addr-file, exactly as the CI scripts do), two workers draining it,
// and the rendered table + bug log landing on disk.
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
			"-linger", "500ms",
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
	for i := 0; i < 2; i++ {
		if err := run([]string{"work", "-coordinator", "http://" + addr,
			"-id", fmt.Sprintf("cli-w%d", i),
			"-checkpoint-dir", filepath.Join(dir, "workers")}); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v", err)
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
