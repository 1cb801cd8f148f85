package harness

import (
	"testing"
	"time"

	"zcover/internal/fleet"
)

func TestRemediationClosesSpecBugs(t *testing.T) {
	_, rows, err := Remediation([]string{"D1", "D6"}, 2*time.Hour, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	byIdx := map[string]RemediationRow{}
	for _, r := range rows {
		byIdx[r.Index] = r
	}
	// The USB stick keeps exactly its two implementation bugs.
	d1 := byIdx["D1"]
	if d1.Before <= d1.After {
		t.Fatalf("patch did not reduce D1 findings: %d -> %d", d1.Before, d1.After)
	}
	if d1.After != 2 {
		t.Fatalf("D1 patched findings = %d (%v), want the two implementation bugs", d1.After, d1.Remaining)
	}
	for _, sig := range d1.Remaining {
		if sig != "host-crash/0x9F/0x01" && sig != "host-dos/0x73/0x04" {
			t.Errorf("spec-rooted bug survived the patch: %s", sig)
		}
	}
	// The hub has no implementation bugs: the patch silences it entirely.
	if d6 := byIdx["D6"]; d6.After != 0 {
		t.Fatalf("D6 patched findings = %d (%v), want 0", d6.After, d6.Remaining)
	}
}
