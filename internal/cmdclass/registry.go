package cmdclass

import (
	_ "embed"
	"encoding/xml"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

//go:embed spec_data.xml
var specXML []byte

// Registry is a parsed command-class database with lookup, clustering, and
// prioritisation queries. It is immutable after construction and safe for
// concurrent use.
type Registry struct {
	release string
	byID    map[ClassID]*Class
	ordered []*Class // sorted by ID
}

// xmlSpec mirrors the spec_data.xml document structure.
type xmlSpec struct {
	XMLName xml.Name   `xml:"zwave_command_classes"`
	Release string     `xml:"release,attr"`
	Classes []xmlClass `xml:"cmd_class"`
}

type xmlClass struct {
	Key      string   `xml:"key,attr"`
	Name     string   `xml:"name,attr"`
	Version  int      `xml:"version,attr"`
	Category string   `xml:"category,attr"`
	Scope    string   `xml:"scope,attr"`
	Commands []xmlCmd `xml:"cmd"`
}

type xmlCmd struct {
	Key    string     `xml:"key,attr"`
	Name   string     `xml:"name,attr"`
	Type   string     `xml:"type,attr"`
	Params []xmlParam `xml:"param"`
}

type xmlParam struct {
	Name   string `xml:"name,attr"`
	Type   string `xml:"type,attr"`
	Min    string `xml:"min,attr"`
	Max    string `xml:"max,attr"`
	Values string `xml:"values,attr"`
}

var (
	loadOnce sync.Once
	loaded   *Registry
	loadErr  error
)

// Load returns the registry built from the embedded specification database.
// The database is parsed once; subsequent calls return the same Registry.
func Load() (*Registry, error) {
	loadOnce.Do(func() { loaded, loadErr = Parse(specXML) })
	return loaded, loadErr
}

// MustLoad is Load for callers that treat a broken embedded spec as a
// programming error (tests, command-line tools, benchmarks).
func MustLoad() *Registry {
	reg, err := Load()
	if err != nil {
		panic(err)
	}
	return reg
}

// Parse builds a Registry from an XML document in the spec_data.xml format.
func Parse(data []byte) (*Registry, error) {
	var doc xmlSpec
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("cmdclass: parsing spec XML: %w", err)
	}
	reg := &Registry{
		release: doc.Release,
		byID:    make(map[ClassID]*Class, len(doc.Classes)),
	}
	for _, xc := range doc.Classes {
		cls, err := buildClass(xc)
		if err != nil {
			return nil, fmt.Errorf("cmdclass: class %q: %w", xc.Name, err)
		}
		if _, dup := reg.byID[cls.ID]; dup {
			return nil, fmt.Errorf("cmdclass: duplicate class ID %s", cls.ID)
		}
		reg.byID[cls.ID] = cls
		reg.ordered = append(reg.ordered, cls)
	}
	sort.Slice(reg.ordered, func(i, j int) bool { return reg.ordered[i].ID < reg.ordered[j].ID })
	return reg, nil
}

// buildClass converts one XML class element into the domain type.
func buildClass(xc xmlClass) (*Class, error) {
	id, err := parseHexByte(xc.Key)
	if err != nil {
		return nil, fmt.Errorf("bad key %q: %w", xc.Key, err)
	}
	cat, err := parseCategory(xc.Category)
	if err != nil {
		return nil, err
	}
	scope, err := parseScope(xc.Scope)
	if err != nil {
		return nil, err
	}
	cls := &Class{
		ID:       ClassID(id),
		Name:     xc.Name,
		Version:  xc.Version,
		Category: cat,
		Scope:    scope,
		Commands: make([]Command, 0, len(xc.Commands)),
	}
	seen := make(map[CommandID]bool, len(xc.Commands))
	for _, xcmd := range xc.Commands {
		cmd, err := buildCommand(xcmd)
		if err != nil {
			return nil, fmt.Errorf("command %q: %w", xcmd.Name, err)
		}
		if seen[cmd.ID] {
			return nil, fmt.Errorf("duplicate command ID %s", cmd.ID)
		}
		seen[cmd.ID] = true
		cls.Commands = append(cls.Commands, cmd)
	}
	sort.Slice(cls.Commands, func(i, j int) bool { return cls.Commands[i].ID < cls.Commands[j].ID })
	return cls, nil
}

// buildCommand converts one XML cmd element.
func buildCommand(xc xmlCmd) (Command, error) {
	id, err := parseHexByte(xc.Key)
	if err != nil {
		return Command{}, fmt.Errorf("bad key %q: %w", xc.Key, err)
	}
	var dir Direction
	switch xc.Type {
	case "controlling":
		dir = DirControlling
	case "supporting":
		dir = DirSupporting
	default:
		return Command{}, fmt.Errorf("unknown direction %q", xc.Type)
	}
	cmd := Command{ID: CommandID(id), Name: xc.Name, Dir: dir}
	for i, xp := range xc.Params {
		p, err := buildParam(xp)
		if err != nil {
			return Command{}, fmt.Errorf("param %d (%s): %w", i, xp.Name, err)
		}
		if p.Kind == ParamVariadic && i != len(xc.Params)-1 {
			return Command{}, fmt.Errorf("variadic param %q must be last", xp.Name)
		}
		cmd.Params = append(cmd.Params, p)
	}
	return cmd, nil
}

// buildParam converts one XML param element.
func buildParam(xp xmlParam) (Param, error) {
	p := Param{Name: xp.Name}
	switch xp.Type {
	case "byte", "":
		p.Kind = ParamByte
	case "range":
		p.Kind = ParamRange
	case "enum":
		p.Kind = ParamEnum
	case "nodeid":
		p.Kind = ParamNodeID
	case "bitmask":
		p.Kind = ParamBitmask
	case "variadic":
		p.Kind = ParamVariadic
	default:
		return Param{}, fmt.Errorf("unknown param type %q", xp.Type)
	}
	if p.Kind == ParamRange {
		minVal, err := parseDecByte(xp.Min)
		if err != nil {
			return Param{}, fmt.Errorf("bad min %q: %w", xp.Min, err)
		}
		maxVal, err := parseDecByte(xp.Max)
		if err != nil {
			return Param{}, fmt.Errorf("bad max %q: %w", xp.Max, err)
		}
		if minVal > maxVal {
			return Param{}, fmt.Errorf("min %d > max %d", minVal, maxVal)
		}
		p.Min, p.Max = minVal, maxVal
	}
	if p.Kind == ParamEnum {
		if xp.Values == "" {
			return Param{}, fmt.Errorf("enum param without values")
		}
		for _, tok := range strings.Split(xp.Values, ",") {
			v, err := parseHexByte(strings.TrimSpace(tok))
			if err != nil {
				return Param{}, fmt.Errorf("bad enum value %q: %w", tok, err)
			}
			p.Values = append(p.Values, v)
		}
		// The mutator's rand-invalid operator needs an illegal value.
		var listed [256]bool
		distinct := 0
		for _, v := range p.Values {
			if !listed[v] {
				listed[v] = true
				distinct++
			}
		}
		if distinct == len(listed) {
			return Param{}, fmt.Errorf("enum param %q lists all 256 byte values, leaving no illegal value", xp.Name)
		}
	}
	return p, nil
}

func parseHexByte(s string) (byte, error) {
	s = strings.TrimPrefix(s, "0x")
	v, err := strconv.ParseUint(s, 16, 8)
	if err != nil {
		return 0, err
	}
	return byte(v), nil
}

func parseDecByte(s string) (byte, error) {
	v, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, err
	}
	return byte(v), nil
}

func parseCategory(s string) (Category, error) {
	switch s {
	case "application":
		return CategoryApplication, nil
	case "transport":
		return CategoryTransport, nil
	case "management":
		return CategoryManagement, nil
	case "network":
		return CategoryNetwork, nil
	default:
		return 0, fmt.Errorf("unknown category %q", s)
	}
}

func parseScope(s string) (Scope, error) {
	switch s {
	case "controller":
		return ScopeController, nil
	case "slave":
		return ScopeSlave, nil
	case "both":
		return ScopeBoth, nil
	default:
		return 0, fmt.Errorf("unknown scope %q", s)
	}
}

// Release reports the spec release label (e.g. "2023B").
func (r *Registry) Release() string { return r.release }

// Len reports the number of command classes in the database.
func (r *Registry) Len() int { return len(r.ordered) }

// Get returns the class with the given ID.
func (r *Registry) Get(id ClassID) (*Class, bool) {
	c, ok := r.byID[id]
	return c, ok
}

// All returns the classes sorted by ID. The slice is a copy; the pointed-to
// classes are shared and must not be mutated.
func (r *Registry) All() []*Class {
	out := make([]*Class, len(r.ordered))
	copy(out, r.ordered)
	return out
}

// ByCategory returns the classes in the given functional cluster, sorted by
// ID. This is the clustering step of §III-C1.
func (r *Registry) ByCategory(cat Category) []*Class {
	var out []*Class
	for _, c := range r.ordered {
		if c.Category == cat {
			out = append(out, c)
		}
	}
	return out
}

// ControllerCluster returns the classes a Z-Wave controller is expected to
// support according to the specification's functional clustering —
// application control, transport encapsulation, management, and networking
// classes whose scope is not slave-only (§III-C1 of the paper).
func (r *Registry) ControllerCluster() []*Class {
	var out []*Class
	for _, c := range r.ordered {
		if c.ControllerRelevant() {
			out = append(out, c)
		}
	}
	return out
}

// PrioritizeByCommandCount orders the given classes for fuzzing: classes
// with more commands first (the paper's intuition that more functionality
// means more room for implementation bugs), breaking ties by ascending ID
// for determinism.
func PrioritizeByCommandCount(classes []*Class) []*Class {
	out := make([]*Class, len(classes))
	copy(out, classes)
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Commands) != len(out[j].Commands) {
			return len(out[i].Commands) > len(out[j].Commands)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CommandDistribution returns the (class, command-count) series for the
// named classes, in the order given — the data behind Figure 5 of the
// paper. Unknown names are skipped.
func (r *Registry) CommandDistribution(names []string) []ClassCommandCount {
	byName := make(map[string]*Class, len(r.ordered))
	for _, c := range r.ordered {
		byName[c.Name] = c
	}
	out := make([]ClassCommandCount, 0, len(names))
	for _, n := range names {
		if c, ok := byName[n]; ok {
			out = append(out, ClassCommandCount{Class: c.Name, ID: c.ID, Commands: len(c.Commands)})
		}
	}
	return out
}

// ClassCommandCount is one bar of the Figure 5 distribution.
type ClassCommandCount struct {
	Class    string
	ID       ClassID
	Commands int
}
