package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/cmdclass"
	"zcover/internal/coord"
	"zcover/internal/coverage"
	"zcover/internal/device"
	"zcover/internal/fleet"
	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/zcover/discover"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
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

// quickOutcome is a random FleetOutcome of one of the three kinds, drawn
// for testing/quick: findings carry oracle events and flight-recorder
// traces, and campaigns carry fingerprints and discovery results.
type quickOutcome struct{ FleetOutcome }

// Generate implements quick.Generator.
func (quickOutcome) Generate(r *rand.Rand, size int) reflect.Value {
	value := func(v any) reflect.Value {
		out, _ := quick.Value(reflect.TypeOf(v), r) // strings and byte slices always generate
		return out
	}
	str := func() string { return value("").String() }
	raw := func() []byte { return value([]byte(nil)).Bytes() }
	at := func() time.Time { return time.Unix(r.Int63n(1<<34), r.Int63n(1e9)).UTC() }
	dur := func() time.Duration { return time.Duration(r.Int63()) }
	n := func() int { return r.Intn(size + 1) }
	ids := func() []cmdclass.ClassID {
		out := make([]cmdclass.ClassID, n())
		for i := range out {
			out[i] = cmdclass.ClassID(r.Intn(256))
		}
		return out
	}
	result := func() *fuzz.Result {
		res := &fuzz.Result{
			Strategy: fuzz.Strategy(str()), Device: str(), Duplicates: n(), PacketsSent: n(),
			ClassesCovered: n(), CommandsCovered: n(), Elapsed: dur(),
		}
		for i := n(); i > 0; i-- {
			f := fuzz.Finding{
				Signature: str(),
				Event: oracle.Event{At: at(), Device: str(), Kind: oracle.Kind(r.Intn(16)),
					Class: byte(r.Intn(256)), Cmd: byte(r.Intn(256)), Duration: dur(), Detail: str(),
					Confidence: oracle.Confidence(r.Intn(3))},
				TriggerPayload: raw(), Packets: n(), Elapsed: dur(), MeasuredOutage: dur(),
			}
			for j := r.Intn(4); j > 0; j-- {
				f.Trace = append(f.Trace, telemetry.FrameRecord{
					Seq: r.Uint64(), At: at(), From: str(), Raw: raw(), Airtime: dur(),
					Security: telemetry.SecurityClass(str()), Targets: n(), Lost: n(), Corrupted: n(),
				})
			}
			res.Findings = append(res.Findings, f)
		}
		for i := n(); i > 0; i-- {
			res.Timeline = append(res.Timeline, fuzz.Sample{Elapsed: dur(), Packets: n(), Unique: n()})
		}
		return res
	}
	var o FleetOutcome
	switch r.Intn(3) {
	case 0:
		o.Baseline = result()
	case 1:
		o.CovFuzz = &fuzz.CovResult{
			Result:     *result(),
			Coverage:   coverage.Stats{Features: n(), Density: r.Float64(), Inputs: r.Uint64(), NovelInputs: r.Uint64()},
			CorpusSize: n(), SeedsMinimized: n(), Rounds: n(),
		}
	default:
		reg := cmdclass.MustLoad()
		c := &Campaign{Fuzz: result()}
		c.Fingerprint = scan.Fingerprint{
			Home: protocol.HomeID(r.Uint32()), Controller: protocol.NodeID(r.Intn(256)),
			Listed: ids(),
			Identity: device.Identity{Basic: byte(r.Intn(256)), Generic: byte(r.Intn(256)),
				Security: byte(r.Intn(256)), Classes: ids()},
		}
		for i := n(); i > 0; i-- {
			c.Fingerprint.Nodes = append(c.Fingerprint.Nodes, protocol.NodeID(r.Intn(256)))
			c.Discovery.ConfirmedCommands = append(c.Discovery.ConfirmedCommands,
				discover.CmdRef{Class: cmdclass.ClassID(r.Intn(256)), Cmd: cmdclass.CommandID(r.Intn(256))})
		}
		c.Discovery.ListedClasses = resolveClasses(reg, ids())
		c.Discovery.UnlistedSpec = resolveClasses(reg, ids())
		c.Discovery.HiddenConfirmed = resolveClasses(reg, ids())
		c.Discovery.Prioritized = resolveClasses(reg, ids())
		c.Discovery.ProbesSent = n()
		o.Campaign = c
	}
	return reflect.ValueOf(quickOutcome{o})
}

// TestOutcomeCodecRoundTripsQuick: for random outcomes of every kind,
// findings with traces included, decoding an encoded outcome and encoding
// it again reproduces the first encoding byte for byte.
func TestOutcomeCodecRoundTripsQuick(t *testing.T) {
	kinds := map[string]int{}
	prop := func(q quickOutcome) bool {
		first, err := EncodeOutcome(q.FleetOutcome)
		if err != nil {
			t.Log(err)
			return false
		}
		decoded, err := DecodeOutcome(first)
		if err != nil {
			t.Log(err)
			return false
		}
		second, err := EncodeOutcome(decoded)
		if err != nil {
			t.Log(err)
			return false
		}
		switch {
		case q.Baseline != nil:
			kinds["baseline"]++
		case q.CovFuzz != nil:
			kinds["covfuzz"]++
		default:
			kinds["campaign"]++
		}
		return bytes.Equal(first, second)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 {
		t.Fatalf("outcome kinds drawn: %v, want all three", kinds)
	}
}
