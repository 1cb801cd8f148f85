package device

import (
	"testing"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/vtime"
)

// ACK-timeout retransmission: with a retry policy installed, a frame the
// channel eats is retransmitted with capped exponential backoff until the
// MAC ack comes back; without one, the node transmits exactly once.

// dropFirstN returns an interceptor that swallows the first n non-ack
// data frames from the named sender and passes everything else.
func dropFirstN(from string, n *int) radio.InterceptFunc {
	return func(dst []radio.Delivery, f, _ *radio.Transceiver, raw []byte) []radio.Delivery {
		// Data frames carry a payload beyond the 9-byte header + checksum;
		// MAC acks do not. Dropping only data keeps the ack path clean.
		if f.Name() == from && *n > 0 && len(raw) > 11 {
			*n--
			return dst
		}
		return append(dst, radio.Delivery{})
	}
}

func TestSendRetransmitsUntilAcked(t *testing.T) {
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	hub := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x01, Name: "hub"})
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	var delivered int
	peer.Handler = func(*protocol.Frame) { delivered++ }

	drops := 2
	m.SetInterceptFunc(dropFirstN("hub", &drops))
	hub.SetRetry(&RetryPolicy{MaxAttempts: 4, Backoff: 50 * time.Millisecond, MaxBackoff: 400 * time.Millisecond})

	if err := hub.Send(0x02, []byte{0x20, 0x01, 0xFF}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d copies after retransmission, want 1", delivered)
	}
	if drops != 0 {
		t.Fatalf("interceptor still holds %d drops; retransmissions never happened", drops)
	}
}

func TestSendGivesUpAfterMaxAttempts(t *testing.T) {
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	hub := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x01, Name: "hub"})
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	var delivered int
	peer.Handler = func(*protocol.Frame) { delivered++ }

	drops := 100 // more than the policy will ever attempt
	m.SetInterceptFunc(dropFirstN("hub", &drops))
	hub.SetRetry(&RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond})

	if err := hub.Send(0x02, []byte{0x20, 0x01, 0xFF}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	if delivered != 0 {
		t.Fatalf("delivered %d copies through a fully lossy channel", delivered)
	}
	if got := 100 - drops; got != 3 {
		t.Fatalf("transmitted %d attempts, want MaxAttempts=3", got)
	}
	if len(hub.pending) != 0 {
		t.Fatalf("pending wait leaked after giving up: %v", hub.pending)
	}
}

func TestSendWithoutRetryTransmitsOnce(t *testing.T) {
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	hub := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x01, Name: "hub"})
	NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})

	drops := 100
	m.SetInterceptFunc(dropFirstN("hub", &drops))

	if err := hub.Send(0x02, []byte{0x20, 0x01, 0xFF}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	if got := 100 - drops; got != 1 {
		t.Fatalf("transmitted %d times without a retry policy, want 1", got)
	}
}

func TestRetryHealthyPathSchedulesNothing(t *testing.T) {
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	hub := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x01, Name: "hub"})
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	var delivered int
	peer.Handler = func(*protocol.Frame) { delivered++ }

	hub.SetRetry(&RetryPolicy{MaxAttempts: 4, Backoff: 50 * time.Millisecond, MaxBackoff: 400 * time.Millisecond})
	// On a clean channel the ack arrives within Send itself (delivery is
	// synchronous), so no retry event may remain queued afterwards.
	if err := hub.Send(0x02, []byte{0x20, 0x01, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if len(hub.pending) != 0 {
		t.Fatalf("acked send left a pending wait: %v", hub.pending)
	}
	clock.Advance(2 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d copies on a clean channel, want 1", delivered)
	}
}

// TestRetransmissionAllocatesNothing pins the retry chain's cost: on a
// link that drops every ack, each retransmission after the first reuses
// the chain's timer and encoding and allocates nothing.
func TestRetransmissionAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	hub := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x01, Name: "hub"})
	peer := NewNode(Config{Medium: m, Region: radio.RegionUS, Home: testHome, ID: 0x02, Name: "peer"})
	var delivered int
	peer.Handler = func(*protocol.Frame) { delivered++ }
	m.SetInterceptFunc(func(dst []radio.Delivery, from, _ *radio.Transceiver, _ []byte) []radio.Delivery {
		if from.Name() == "peer" {
			return dst // the ack never makes it back
		}
		return append(dst, radio.Delivery{})
	})
	const backoff = 10 * time.Millisecond
	hub.SetRetry(&RetryPolicy{MaxAttempts: 1000, Backoff: backoff, MaxBackoff: backoff})
	if err := hub.Send(0x02, []byte{0x20, 0x01, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { clock.Advance(backoff) }); allocs != 0 {
		t.Fatalf("a retransmission allocates %.1f times, want 0", allocs)
	}
	if delivered != 1+101 {
		t.Fatalf("peer saw %d copies, want the first send and 101 retransmissions", delivered)
	}
}
