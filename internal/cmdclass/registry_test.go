package cmdclass

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLoadEmbeddedSpec(t *testing.T) {
	reg, err := Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if reg.Release() != "2023B" {
		t.Errorf("Release = %q, want 2023B", reg.Release())
	}
	// The paper: "as of November 2024, [the spec] lists 122 CMDCLs".
	if got := reg.Len(); got != 122 {
		t.Errorf("spec lists %d classes, want 122", got)
	}
}

func TestLoadIsIdempotent(t *testing.T) {
	a := MustLoad()
	b := MustLoad()
	if a != b {
		t.Fatal("Load returned different registries")
	}
}

func TestControllerClusterSize(t *testing.T) {
	reg := MustLoad()
	cluster := reg.ControllerCluster()
	// 17 classes appear in a modern controller's NIF; the discovery phase
	// infers 26 more from the spec (paper §III-C1: "ZCOVER inferred 26
	// unlisted CMDCLs relevant to the controller", on top of the 17 listed).
	if got := len(cluster); got != 43 {
		t.Fatalf("controller cluster has %d classes, want 43 (17 listed + 26 unlisted)", got)
	}
	for _, c := range cluster {
		if c.Scope == ScopeSlave {
			t.Errorf("slave-scoped class %s (%s) in controller cluster", c.ID, c.Name)
		}
	}
}

func TestHiddenClassesNotInSpec(t *testing.T) {
	reg := MustLoad()
	for _, hidden := range HiddenCandidates() {
		if _, ok := reg.Get(hidden.ID); ok {
			t.Errorf("proprietary class %s must not appear in the public spec", hidden.ID)
		}
	}
	if got := len(HiddenCandidates()); got != 2 {
		t.Fatalf("hidden candidates = %d, want 2 (0x01, 0x02)", got)
	}
}

func TestHiddenClassLookup(t *testing.T) {
	proto, ok := HiddenClass(ClassZWaveProtocol)
	if !ok {
		t.Fatal("HiddenClass(0x01) not found")
	}
	if proto.Name != "ZWAVE_PROTOCOL" {
		t.Errorf("0x01 name = %q", proto.Name)
	}
	// CMD 0x0D (NEW_NODE_REGISTERED) is the vector of bugs 01-04 and 12.
	cmd, ok := proto.Command(CmdProtoNewNodeRegistered)
	if !ok {
		t.Fatal("ZWAVE_PROTOCOL lacks NEW_NODE_REGISTERED (0x0D)")
	}
	if cmd.Name != "NEW_NODE_REGISTERED" {
		t.Errorf("0x01/0x0D name = %q", cmd.Name)
	}
	if len(cmd.Params) == 0 || cmd.Params[0].Kind != ParamNodeID {
		t.Error("NEW_NODE_REGISTERED first param must be a node ID")
	}
	if _, ok := HiddenClass(0x7F); ok {
		t.Error("HiddenClass(0x7F) should not exist")
	}
}

func TestZWaveProtocolHas23Commands(t *testing.T) {
	proto, _ := HiddenClass(ClassZWaveProtocol)
	if got := len(proto.Commands); got != 23 {
		t.Errorf("ZWAVE_PROTOCOL has %d commands, want 23", got)
	}
}

func TestVersionClassMatchesPaperBugVector(t *testing.T) {
	reg := MustLoad()
	version, ok := reg.Get(ClassVersion)
	if !ok {
		t.Fatal("VERSION class missing")
	}
	// Bug 10 (CVE-2023-6641) is CMDCL 0x86, CMD 0x13.
	cmd, ok := version.Command(CmdVersionCommandClassGet)
	if !ok {
		t.Fatal("VERSION lacks COMMAND_CLASS_GET (0x13)")
	}
	if cmd.Name != "COMMAND_CLASS_GET" {
		t.Errorf("0x86/0x13 = %q", cmd.Name)
	}
	if got := len(version.Commands); got != 8 {
		t.Errorf("VERSION has %d commands, want 8", got)
	}
}

func TestBugVectorCommandsExist(t *testing.T) {
	reg := MustLoad()
	vectors := []struct {
		class ClassID
		cmd   CommandID
		name  string
	}{
		{ClassSecurity2, CmdS2NonceGet, "NONCE_GET"},                          // bug 06
		{ClassDeviceResetLocal, CmdDeviceResetNotification, "NOTIFICATION"},   // bug 07
		{ClassAssocGroupInfo, CmdAGIGroupInfoGet, "GROUP_INFO_GET"},           // bug 08
		{ClassFirmwareUpdateMD, CmdFirmwareMDGet, "MD_GET"},                   // bug 09
		{ClassAssocGroupInfo, CmdAGICommandListGet, "GROUP_COMMAND_LIST_GET"}, // bug 11
		{ClassPowerlevel, CmdPowerlevelTestNodeSet, "TEST_NODE_SET"},          // bug 13
		{ClassFirmwareUpdateMD, CmdFirmwareRequestGet, "REQUEST_GET"},         // bug 15
	}
	for _, v := range vectors {
		cls, ok := reg.Get(v.class)
		if !ok {
			t.Errorf("class %s missing", v.class)
			continue
		}
		cmd, ok := cls.Command(v.cmd)
		if !ok {
			t.Errorf("class %s lacks command %s", v.class, v.cmd)
			continue
		}
		if cmd.Name != v.name {
			t.Errorf("%s/%s = %q, want %q", v.class, v.cmd, cmd.Name, v.name)
		}
	}
}

func TestFigure5Distribution(t *testing.T) {
	reg := MustLoad()
	names := Figure5Classes()
	dist := reg.CommandDistribution(names)
	if len(dist) != len(names) {
		t.Fatalf("distribution covers %d classes, want %d", len(dist), len(names))
	}
	// The paper's Figure 5 series.
	want := []int{23, 15, 11, 10, 8, 7, 6, 6, 5, 4, 3, 2, 2, 1, 1, 0}
	if len(dist) != len(want) {
		t.Fatalf("series length %d, want %d", len(dist), len(want))
	}
	for i, d := range dist {
		if d.Commands != want[i] {
			t.Errorf("%s: %d commands, want %d", d.Class, d.Commands, want[i])
		}
	}
	for i := 1; i < len(dist); i++ {
		if dist[i].Commands > dist[i-1].Commands {
			t.Errorf("series not descending at %d: %v", i, dist)
		}
	}
}

func TestPrioritizeByCommandCount(t *testing.T) {
	reg := MustLoad()
	pri := PrioritizeByCommandCount(reg.ControllerCluster())
	if len(pri) != 43 {
		t.Fatalf("prioritized list has %d classes", len(pri))
	}
	for i := 1; i < len(pri); i++ {
		if len(pri[i].Commands) > len(pri[i-1].Commands) {
			t.Fatalf("not sorted by command count at %d", i)
		}
		if len(pri[i].Commands) == len(pri[i-1].Commands) && pri[i].ID < pri[i-1].ID {
			t.Fatalf("tie not broken by ID at %d", i)
		}
	}
	// NETWORK_MANAGEMENT_INCLUSION (23 commands) must come first.
	if pri[0].ID != ClassNetworkMgmtIncl {
		t.Errorf("highest priority class = %s (%s), want 0x34", pri[0].ID, pri[0].Name)
	}
}

func TestPrioritizeDoesNotMutateInput(t *testing.T) {
	reg := MustLoad()
	in := reg.ControllerCluster()
	first := in[0]
	_ = PrioritizeByCommandCount(in)
	if in[0] != first {
		t.Fatal("PrioritizeByCommandCount reordered its input slice")
	}
}

func TestByCategoryPartitionsSpec(t *testing.T) {
	reg := MustLoad()
	total := 0
	for _, cat := range []Category{CategoryApplication, CategoryTransport, CategoryManagement, CategoryNetwork} {
		classes := reg.ByCategory(cat)
		total += len(classes)
		for _, c := range classes {
			if c.Category != cat {
				t.Errorf("class %s in wrong category bucket", c.ID)
			}
		}
	}
	if total != reg.Len() {
		t.Errorf("categories cover %d classes, registry has %d", total, reg.Len())
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"not xml":          "{",
		"bad class key":    `<zwave_command_classes><cmd_class key="xyz" name="A" category="application" scope="slave"/></zwave_command_classes>`,
		"bad category":     `<zwave_command_classes><cmd_class key="0x20" name="A" category="banana" scope="slave"/></zwave_command_classes>`,
		"bad scope":        `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="nobody"/></zwave_command_classes>`,
		"duplicate class":  `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"/><cmd_class key="0x20" name="B" category="application" scope="slave"/></zwave_command_classes>`,
		"bad direction":    `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"><cmd key="0x01" name="X" type="sideways"/></cmd_class></zwave_command_classes>`,
		"duplicate cmd":    `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"><cmd key="0x01" name="X" type="controlling"/><cmd key="0x01" name="Y" type="controlling"/></cmd_class></zwave_command_classes>`,
		"enum no values":   `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"><cmd key="0x01" name="X" type="controlling"><param name="P" type="enum"/></cmd></cmd_class></zwave_command_classes>`,
		"range min>max":    `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"><cmd key="0x01" name="X" type="controlling"><param name="P" type="range" min="9" max="1"/></cmd></cmd_class></zwave_command_classes>`,
		"variadic middle":  `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"><cmd key="0x01" name="X" type="controlling"><param name="P" type="variadic"/><param name="Q" type="byte"/></cmd></cmd_class></zwave_command_classes>`,
		"unknown paramtyp": `<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"><cmd key="0x01" name="X" type="controlling"><param name="P" type="float"/></cmd></cmd_class></zwave_command_classes>`,
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse accepted invalid document", name)
		}
	}
}

// An enum that lists every byte leaves the rand-invalid operator nothing
// to draw; Parse must reject it and name the param, while one value short
// of that is a valid spec.
func TestParseRejectsEnumListingEveryByte(t *testing.T) {
	doc := func(values int) []byte {
		vals := make([]string, values)
		for i := range vals {
			vals[i] = fmt.Sprintf("0x%02X", i)
		}
		return []byte(`<zwave_command_classes><cmd_class key="0x20" name="A" category="application" scope="slave"><cmd key="0x01" name="X" type="controlling"><param name="Mode" type="enum" values="` +
			strings.Join(vals, ",") + `"/></cmd></cmd_class></zwave_command_classes>`)
	}
	_, err := Parse(doc(256))
	if err == nil {
		t.Fatal("Parse accepted an enum listing all 256 byte values")
	}
	if !strings.Contains(err.Error(), `"Mode"`) {
		t.Fatalf("error does not name the param: %v", err)
	}
	if _, err := Parse(doc(255)); err != nil {
		t.Fatalf("Parse rejected a 255-value enum: %v", err)
	}
}

func TestParamLegal(t *testing.T) {
	rangeParam := Param{Kind: ParamRange, Min: 3, Max: 9}
	for b, want := range map[byte]bool{2: false, 3: true, 9: true, 10: false} {
		if got := rangeParam.Legal(b); got != want {
			t.Errorf("range.Legal(%d) = %v, want %v", b, got, want)
		}
	}
	enumParam := Param{Kind: ParamEnum, Values: []byte{0x00, 0xFF}}
	if !enumParam.Legal(0x00) || !enumParam.Legal(0xFF) || enumParam.Legal(0x7F) {
		t.Error("enum.Legal wrong")
	}
	for _, k := range []ParamKind{ParamByte, ParamNodeID, ParamBitmask, ParamVariadic} {
		p := Param{Kind: k}
		if !p.Legal(0x00) || !p.Legal(0xFF) {
			t.Errorf("%v.Legal should accept any byte", k)
		}
	}
}

func TestCommandMinLength(t *testing.T) {
	cmd := Command{Params: []Param{
		{Kind: ParamByte}, {Kind: ParamNodeID}, {Kind: ParamVariadic},
	}}
	// CMDCL + CMD + two fixed params; variadic contributes nothing.
	if got := cmd.MinLength(); got != 4 {
		t.Fatalf("MinLength = %d, want 4", got)
	}
	if got := (Command{}).MinLength(); got != 2 {
		t.Fatalf("MinLength of bare command = %d, want 2", got)
	}
}

func TestCommandIDsSorted(t *testing.T) {
	reg := MustLoad()
	for _, c := range reg.All() {
		ids := c.CommandIDs()
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("class %s command IDs not strictly ascending: %v", c.ID, ids)
			}
		}
	}
}

func TestSecurityClassesAreTransport(t *testing.T) {
	reg := MustLoad()
	for _, id := range []ClassID{ClassSecurity0, ClassSecurity2, ClassTransportService, ClassCRC16Encap, ClassSupervision, ClassMultiCmd} {
		c, ok := reg.Get(id)
		if !ok {
			t.Fatalf("class %s missing", id)
		}
		if c.Category != CategoryTransport {
			t.Errorf("class %s category = %v, want transport", id, c.Category)
		}
		if !c.ControllerRelevant() {
			t.Errorf("class %s should be controller-relevant", id)
		}
	}
}

func TestStringers(t *testing.T) {
	if ClassID(0x9F).String() != "0x9F" || CommandID(0x01).String() != "0x01" {
		t.Error("ID stringers wrong")
	}
	pairs := map[string]string{
		DirControlling.String():      "controlling",
		DirSupporting.String():       "supporting",
		CategoryApplication.String(): "application",
		CategoryNetwork.String():     "network",
		ScopeController.String():     "controller",
		ScopeBoth.String():           "both",
		ParamVariadic.String():       "variadic",
		ParamNodeID.String():         "nodeid",
	}
	for got, want := range pairs {
		if got != want {
			t.Errorf("stringer = %q, want %q", got, want)
		}
	}
	if !strings.Contains(Direction(99).String(), "99") || !strings.Contains(Category(42).String(), "42") {
		t.Error("out-of-range stringers should embed the value")
	}
}

// Property: every legal enum/range value generated from the spec passes its
// own Legal check, and boundary+1 values of ranges fail.
func TestParamLegalProperty(t *testing.T) {
	reg := MustLoad()
	var params []Param
	for _, c := range reg.All() {
		for _, cmd := range c.Commands {
			params = append(params, cmd.Params...)
		}
	}
	if len(params) == 0 {
		t.Fatal("spec has no params")
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := params[r.Intn(len(params))]
		switch p.Kind {
		case ParamRange:
			legal := p.Min + byte(r.Intn(int(p.Max-p.Min)+1))
			if !p.Legal(legal) {
				return false
			}
			if p.Max < 0xFF && p.Legal(p.Max+1) {
				return false
			}
			if p.Min > 0 && p.Legal(p.Min-1) {
				return false
			}
		case ParamEnum:
			if !p.Legal(p.Values[r.Intn(len(p.Values))]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpecParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(specXML); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerCluster(b *testing.B) {
	reg := MustLoad()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := reg.ControllerCluster(); len(got) != 43 {
			b.Fatal("bad cluster")
		}
	}
}
