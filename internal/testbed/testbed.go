// Package testbed assembles the paper's smart-home system under test: one
// controller (any of the D1–D7 profiles), the S2 door lock (D8), the legacy
// binary switch (D9), a shared simulated air, and the oracle bus. Every
// experiment, example, and integration test builds its world through this
// package.
package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"zcover/internal/chaos"
	"zcover/internal/cmdclass"
	"zcover/internal/controller"
	"zcover/internal/device"
	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// Frame-cycle counters on the process-wide registry. The medium and the
// fault injector count a campaign's frames themselves; Publish adds those
// counts here once, so no frame writes memory other campaigns share.
var (
	mTxFrames     = telemetry.Default().Counter("radio_tx_frames_total")
	mRxFrames     = telemetry.Default().Counter("radio_rx_frames_total")
	mLost         = telemetry.Default().Counter("radio_frames_lost_total")
	mCorrupted    = telemetry.Default().Counter("radio_frames_corrupted_total")
	mTooLong      = telemetry.Default().Counter("radio_frames_too_long_total")
	mDecoded      = telemetry.Default().Counter("protocol_frames_decoded_total")
	mDecodeFail   = telemetry.Default().Counter("protocol_decode_fail_total")
	mChecksumFail = telemetry.Default().Counter("protocol_checksum_fail_total")

	mChaosDeliveries  = telemetry.Default().Counter("chaos_deliveries_total")
	mChaosDropped     = telemetry.Default().Counter("chaos_dropped_total")
	mChaosCorrupted   = telemetry.Default().Counter("chaos_corrupted_total")
	mChaosDuplicated  = telemetry.Default().Counter("chaos_duplicated_total")
	mChaosDelayed     = telemetry.Default().Counter("chaos_delayed_total")
	mChaosPartitioned = telemetry.Default().Counter("chaos_partitioned_total")
)

// Node IDs of the testbed network.
const (
	// ControllerID is always node 1 (Table IV).
	ControllerID = 0x01
	// LockID is the S2 door lock (D8).
	LockID = 0x02
	// SwitchID is the legacy binary switch (D9).
	SwitchID = 0x03
)

// Testbed is one assembled smart-home system under test.
type Testbed struct {
	// Clock is the simulated clock everything runs on.
	Clock *vtime.SimClock
	// Medium is the shared air.
	Medium *radio.Medium
	// Bus is the anomaly oracle.
	Bus *oracle.Bus
	// Controller is the device under test.
	Controller *controller.Controller
	// Lock is the S2 door lock slave (D8).
	Lock *device.DoorLock
	// Switch is the legacy binary switch slave (D9).
	Switch *device.BinarySwitch
	// Region is the RF profile in use.
	Region radio.Region
	// Chaos is the fault injector installed by ApplyChaos; nil on a clean
	// testbed.
	Chaos *chaos.Injector

	// published and publishedChaos are the counts Publish already added.
	published      radio.Stats
	publishedChaos chaos.Stats
}

// New assembles a testbed around the controller profile with the given
// testbed index ("D1".."D7"). The door lock is S2-paired with the
// controller; the switch joins without encryption; both are registered in
// the controller's node table, as after a normal inclusion. seed drives
// the S2 pairing entropy deterministically.
func New(index string, seed int64) (*Testbed, error) {
	profile, ok := controller.ProfileByIndex(index)
	if !ok {
		return nil, fmt.Errorf("testbed: unknown controller profile %q", index)
	}
	return build(profile, index, seed)
}

// NewPatched assembles the same testbed around a controller whose firmware
// follows the *updated* specification of §V-B: the spec-rooted Table III
// bugs are closed, the implementation and MAC-layer bugs remain.
func NewPatched(index string, seed int64) (*Testbed, error) {
	profile, ok := controller.PatchedProfile(index)
	if !ok {
		return nil, fmt.Errorf("testbed: unknown controller profile %q", index)
	}
	return build(profile, index, seed)
}

// build wires the common testbed around the given profile.
func build(profile controller.Profile, index string, seed int64) (*Testbed, error) {
	tb := &Testbed{
		Clock:  vtime.NewSimClock(),
		Bus:    &oracle.Bus{},
		Region: radio.RegionUS,
	}
	tb.Medium = radio.NewMedium(tb.Clock)
	tb.Controller = controller.New(tb.Medium, tb.Region, profile, tb.Bus)

	tb.Lock = device.NewDoorLock(device.Config{
		Medium: tb.Medium, Region: tb.Region,
		Home: profile.Home, ID: LockID, Name: index + "-lock",
	}, ControllerID)
	tb.Switch = device.NewBinarySwitch(device.Config{
		Medium: tb.Medium, Region: tb.Region,
		Home: profile.Home, ID: SwitchID, Name: index + "-switch",
	}, ControllerID)

	// S2 inclusion of the lock.
	pairing, err := device.PairS2(rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		return nil, fmt.Errorf("testbed: pairing lock: %w", err)
	}
	tb.Lock.InstallSession(pairing.DeviceSession)
	tb.Controller.InstallSession(LockID, pairing.ControllerSession)

	lockID := tb.Lock.Identity()
	tb.Controller.IncludeNode(controller.NodeRecord{
		ID: LockID, Basic: lockID.Basic, Generic: lockID.Generic, Specific: lockID.Specific,
		Capability: lockID.Capability, Security: lockID.Security,
		WakeupInterval: time.Hour,
		Classes:        lockID.Classes,
	})
	switchID := tb.Switch.Identity()
	tb.Controller.IncludeNode(controller.NodeRecord{
		ID: SwitchID, Basic: switchID.Basic, Generic: switchID.Generic, Specific: switchID.Specific,
		Capability: switchID.Capability,
		Classes:    switchID.Classes,
	})
	return tb, nil
}

// Home reports the network home ID.
func (tb *Testbed) Home() protocol.HomeID { return tb.Controller.Profile().Home }

// GenerateTraffic makes the slaves report status n times each, spaced by
// interval — the normal network chatter a passive scanner feeds on.
func (tb *Testbed) GenerateTraffic(n int, interval time.Duration) error {
	for i := 0; i < n; i++ {
		if err := tb.Lock.ReportStatus(); err != nil {
			return fmt.Errorf("testbed: lock traffic: %w", err)
		}
		tb.Clock.Advance(interval / 2)
		if err := tb.Switch.ReportStatus(); err != nil {
			return fmt.Errorf("testbed: switch traffic: %w", err)
		}
		tb.Clock.Advance(interval / 2)
	}
	return nil
}

// AddSensor includes a battery temperature sensor as the given node ID
// (over the controller's table, with a stored wake-up interval) and
// returns it. The default testbed matches the paper's two-slave setup;
// richer homes opt in through this call.
func (tb *Testbed) AddSensor(id protocol.NodeID, wakeup time.Duration) *device.MultilevelSensor {
	sensor := device.NewMultilevelSensor(device.Config{
		Medium: tb.Medium, Region: tb.Region,
		Home: tb.Home(), ID: id, Name: "sensor",
	}, ControllerID)
	sid := sensor.Identity()
	tb.Controller.IncludeNode(controller.NodeRecord{
		ID: id, Basic: sid.Basic, Generic: sid.Generic, Specific: sid.Specific,
		Capability: sid.Capability, WakeupInterval: wakeup,
		Classes: sid.Classes,
	})
	return sensor
}

// ScheduleTraffic queues n rounds of slave status reports on the simulated
// clock, spaced by interval, starting one interval from now. The reports
// fire as the clock advances — e.g. while a passive scanner observes.
func (tb *Testbed) ScheduleTraffic(n int, interval time.Duration) {
	for i := 1; i <= n; i++ {
		tb.Clock.Schedule(time.Duration(i)*interval, func() {
			_ = tb.Lock.ReportStatus()
		})
		tb.Clock.Schedule(time.Duration(i)*interval+interval/2, func() {
			_ = tb.Switch.ReportStatus()
		})
	}
}

// Resilience parameters armed alongside chaos injection. The retry chain
// (4 attempts at 50/100/200 ms) rides out the burst profiles' bad-state
// dwell; the SPAN window covers the S2 messages a whole lost burst can
// take with it.
const (
	retryAttempts    = 4
	retryBackoff     = 50 * time.Millisecond
	retryMaxBackoff  = 400 * time.Millisecond
	s2RecoveryWindow = 8
)

// ApplyChaos installs a fault injector for the given profile and seed on
// the testbed's medium, anchored at the current simulated time, and arms
// the resilience features an impaired channel requires. Profiles that
// cannot inject any fault ("none") are a no-op, keeping the clean path
// byte-identical.
func (tb *Testbed) ApplyChaos(p chaos.Profile, seed int64) {
	if !p.Enabled() {
		return
	}
	inj := chaos.New(p, seed)
	inj.Attach(tb.Medium)
	tb.Chaos = inj
	tb.EnableResilience()
}

// EnableResilience arms ACK-timeout retransmission on every testbed node
// and SPAN desync recovery on both ends of the lock's S2 session. Off by
// default: the clean deterministic campaigns must not change; ApplyChaos
// calls it for impaired ones.
func (tb *Testbed) EnableResilience() {
	rp := &device.RetryPolicy{
		MaxAttempts: retryAttempts,
		Backoff:     retryBackoff,
		MaxBackoff:  retryMaxBackoff,
	}
	tb.Controller.Node().SetRetry(rp)
	tb.Lock.Node().SetRetry(rp)
	tb.Switch.Node().SetRetry(rp)
	if s, ok := tb.Controller.Session(LockID); ok {
		s.SetRecoveryWindow(s2RecoveryWindow)
	}
	if s := tb.Lock.Session(); s != nil {
		s.SetRecoveryWindow(s2RecoveryWindow)
	}
}

// Publish adds what the testbed's medium and fault injector counted since
// the previous call to the process-wide radio_*, protocol decode and
// chaos_* counters. Call it when the campaign is done with the testbed
// (harness.Run does); a second call adds only the new counts.
func (tb *Testbed) Publish() {
	s, p := tb.Medium.Stats(), tb.published
	mTxFrames.Add(s.Tx - p.Tx)
	mRxFrames.Add(s.Rx - p.Rx)
	mLost.Add(s.Lost - p.Lost)
	mCorrupted.Add(s.Corrupted - p.Corrupted)
	mTooLong.Add(s.TooLong - p.TooLong)
	mDecoded.Add(s.Decoded - p.Decoded)
	mDecodeFail.Add(s.DecodeFail - p.DecodeFail)
	mChecksumFail.Add(s.ChecksumFail - p.ChecksumFail)
	tb.published = s
	if tb.Chaos == nil {
		return
	}
	c, q := tb.Chaos.Stats(), tb.publishedChaos
	mChaosDeliveries.Add(c.Deliveries - q.Deliveries)
	mChaosDropped.Add(c.Dropped - q.Dropped)
	mChaosCorrupted.Add(c.Corrupted - q.Corrupted)
	mChaosDuplicated.Add(c.Duplicated - q.Duplicated)
	mChaosDelayed.Add(c.Delayed - q.Delayed)
	mChaosPartitioned.Add(c.Partitioned - q.Partitioned)
	tb.publishedChaos = c
}

// Reset restores the controller to its post-inclusion state and clears the
// oracle log (used between fuzzing trials).
func (tb *Testbed) Reset() {
	tb.Controller.Reset()
	tb.Bus.Reset()
}

// HiddenClassDefinitions returns the proprietary class definitions the
// discovery phase can consult once validation testing confirms a hidden
// class responds (the paper derived these from chipset documentation and
// observed behaviour).
func HiddenClassDefinitions() []*cmdclass.Class { return cmdclass.HiddenCandidates() }
