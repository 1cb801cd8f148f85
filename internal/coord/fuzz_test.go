package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// fuzzEndpoints are the request bodies a worker sends; the fuzz target's
// endpoint byte picks one.
var fuzzEndpoints = []string{"/lease", "/result"}

// primedCoord builds a 3-job coordinator and drives it through a real
// lease exchange: w1 leases job 0 and uploads its outcome, then leases job
// 1 and keeps it. It returns the coordinator and the body each endpoint
// received last — one valid request per entry of fuzzEndpoints (the
// /result seed is job 1's upload, which the exchange has not sent).
func primedCoord(tb testing.TB) (*Coordinator, [][]byte) {
	tb.Helper()
	c, err := New(Config{
		Campaign: "fuzz", Jobs: testJobs(3), SpecHash: "cafe0123",
		Dir: tb.TempDir(), LeaseTTL: time.Minute, now: newFakeClock().Now,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	h := c.Handler()
	send := func(path string, req, reply any) []byte {
		raw, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		if reply != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
				tb.Fatal(err)
			}
		}
		return raw
	}
	result := func(l LeaseReply) ResultRequest {
		return ResultRequest{Worker: "w1", JobIndex: l.JobIndex,
			SpecHash: l.SpecHash, Attempts: 1, Body: json.RawMessage(`{"kind":"fuzz","packets":530}`)}
	}
	var first, second LeaseReply
	send("/lease", LeaseRequest{Worker: "w1"}, &first)
	send("/result", result(first), nil)
	leaseBody := send("/lease", LeaseRequest{Worker: "w1"}, &second)
	resultBody, err := json.Marshal(result(second))
	if err != nil {
		tb.Fatal(err)
	}
	return c, [][]byte{leaseBody, resultBody}
}

// FuzzCoordHandlers sends one arbitrary body to /lease or /result
// through Coordinator.Handler(), on a campaign with one job journaled and
// one leased. No body may panic the coordinator or draw a
// status outside the protocol's, and a refused /result must leave the
// journal and the done count as they were.
func FuzzCoordHandlers(f *testing.F) {
	_, seeds := primedCoord(f)
	for i, body := range seeds {
		f.Add(byte(i), body)
	}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		c, _ := primedCoord(t)
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		journaled, done := c.Journaled(), c.Status().Done

		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusGone, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s %q: status %d %s", path, body, rec.Code, rec.Body)
		}
		if path != "/result" || rec.Code == http.StatusOK {
			return
		}
		if got := c.Journaled(); !reflect.DeepEqual(got, journaled) {
			t.Errorf("refused %s %q changed the journal:\n got %+v\nwant %+v", path, body, got, journaled)
		}
		if got := c.Status().Done; got != done {
			t.Errorf("refused %s %q moved Done %d -> %d", path, body, done, got)
		}
	})
}
