package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/coord"
	"zcover/internal/fleet"
)

// TestDecodeOutcomeRejectsGarbage: a body that does not set exactly one
// outcome kind — or a campaign without its fuzz result — is an error, not
// a zero FleetOutcome waiting to nil-dereference in a renderer.
func TestDecodeOutcomeRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		`{}`,
		`null`,
		`{"campaign":null}`,
		`{"campaign":{}}`,
		`{"campaign":{"fuzz":null}}`,
		`{"baseline":{},"campaign":{"fuzz":{}}}`,
		`{"baseline":{},"covfuzz":{}}`,
		`[]`,
		`"campaign"`,
	} {
		if out, err := DecodeOutcome(json.RawMessage(body)); err == nil {
			t.Errorf("DecodeOutcome(%s) = %+v, want an error", body, out)
		}
	}
	for _, body := range []string{`{"baseline":{}}`, `{"covfuzz":{}}`, `{"campaign":{"fuzz":{}}}`} {
		if _, err := DecodeOutcome(json.RawMessage(body)); err != nil {
			t.Errorf("DecodeOutcome(%s): %v", body, err)
		}
	}
}

// TestDecodeRecordsRejectsDuplicateIndex: two records for one job leave
// another job without a row; that must fail, not render a zero outcome.
func TestDecodeRecordsRejectsDuplicateIndex(t *testing.T) {
	rec := checkpoint.JobRecord{Index: 0, Label: "j0", Body: json.RawMessage(`{"baseline":{}}`)}
	if _, err := DecodeRecords([]checkpoint.JobRecord{rec, rec}, 2); err == nil {
		t.Fatal("duplicate index accepted; job 1 would render as a zero outcome")
	}
}

// TestCoordinatorEmptyOutcomeFailsRender: the coordinator journals any
// non-empty body with the right spec hash, so a "{}" upload reaches the
// journal. Rendering it — from the coordinator's records or by resuming
// the journal locally — must return an error, not panic or print a row
// of zeros.
func TestCoordinatorEmptyOutcomeFailsRender(t *testing.T) {
	dir := t.TempDir()
	jobs := smokeJobs(0)
	hash, err := CampaignSpecHash("smoke", jobs)
	if err != nil {
		t.Fatal(err)
	}
	c, srv := newSmokeCoordinator(t, dir, false, 0)
	for i := range jobs {
		code, body := postResult(t, srv.URL, coord.ResultRequest{
			Worker: "w", JobIndex: i, SpecHash: hash, Attempts: 1, Body: json.RawMessage(`{}`),
		})
		if code != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, code, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	c.Close()
	if _, err := DecodeRecords(recs, len(jobs)); err == nil {
		t.Error("coordinator records of {} decoded without error")
	}
	outs, err := runCampaigns("smoke", jobs, fleet.Config{
		Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: dir, Resume: true},
	})
	if err == nil {
		t.Errorf("resumed journal of {} rendered %d outcomes without error", len(outs))
	}
}

// postResult uploads one result to a coordinator over HTTP.
func postResult(t *testing.T, base string, req coord.ResultRequest) (int, string) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/result", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}
