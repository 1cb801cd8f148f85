package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"zcover/internal/obs"
	"zcover/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("campaign_packets_total").Add(42)
	tl := obs.NewTimeline()
	tl.StartWorker(0)
	tl.Phase(0, "job", obs.PhaseFuzz, time.Time{})

	srv, err := obs.NewServer("127.0.0.1:0", reg, tl)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "campaign_packets_total 42") {
		t.Errorf("/metrics = %d, missing counter:\n%s", code, body)
	}
	code, body := get(t, base+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("/timeline = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/timeline body does not parse: %v", err)
	}
	if len(snap.Workers) != 1 {
		t.Errorf("/timeline workers = %d, want 1", len(snap.Workers))
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, not a pprof index", code)
	}
}

func TestServerNilTimeline(t *testing.T) {
	srv, err := obs.NewServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	code, body := get(t, "http://"+srv.Addr()+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("/timeline with nil timeline = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
}

func TestServerBadAddrFailsSynchronously(t *testing.T) {
	if _, err := obs.NewServer("256.0.0.1:bad", nil, nil); err == nil {
		t.Fatal("bad address accepted; want synchronous bind error")
	}
	// An occupied port must also fail at construction, not mid-campaign.
	srv, err := obs.NewServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	if _, err := obs.NewServer(srv.Addr(), nil, nil); err == nil {
		t.Fatalf("second bind of %s accepted; want error", srv.Addr())
	}
}

func TestServerCloseGraceful(t *testing.T) {
	srv, err := obs.NewServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.Addr())); err == nil {
		t.Error("server still answering after Close")
	}
	var nilSrv *obs.Server
	if err := nilSrv.Close(ctx); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}
