// Package spec implements the declarative system-description format of the
// optimization service: a JSON document listing the nodes, edges, noise
// sources and optimizer options of a signal-flow graph, parseable into an
// sfg.Graph and exportable back out of one. It is the wire form of a
// word-length optimization problem — what a client POSTs to the daemon,
// what the scenario suite accepts as extra workloads, and what every
// systems.Registry() entry can be serialized to.
//
// A spec looks like:
//
//	{
//	  "version": 1,
//	  "name": "comb",
//	  "nodes": [
//	    {"name": "in",  "kind": "input", "noise": {"name": "in.q", "mode": "round-nearest", "frac": 12}},
//	    {"name": "g",   "kind": "gain",  "gain": 1},
//	    {"name": "z1",  "kind": "delay", "delay": 1},
//	    {"name": "sum", "kind": "adder"},
//	    {"name": "out", "kind": "output"}
//	  ],
//	  "edges": [["in","g"], ["in","z1"], ["g","sum"], ["z1","sum"], ["sum","out"]],
//	  "options": {"strategy": "descent", "budget_width": 10, "min_frac": 4, "max_frac": 16}
//	}
//
// Filter nodes carry either explicit coefficients ({"b": [...], "a": [...]})
// or a design request ({"fir": {...}} / {"iir": {...}}) resolved at build
// time. Parse validates the whole document and reports errors positionally
// (JSON syntax errors as line:column, semantic errors as nodes[i]/edges[i]
// paths); Marshal renders the canonical JSON form, and Digest computes a
// content hash of the optimization problem that is invariant under node and
// edge reordering.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fixed"
	"repro/internal/sfg"
)

// Version is the format version Parse accepts and Marshal emits. It is
// also baked into Digest's canonical form and into the persistent warm
// store's envelope schema (internal/store): bumping it invalidates every
// content address derived under the old format, so persisted plans and
// results from a previous schema are rebuilt rather than reinterpreted.
const Version = 1

// Spec is one system description.
type Spec struct {
	// Version is the format version; Parse accepts 0 (implied latest) and
	// normalizes it to Version.
	Version int `json:"version"`
	// Name labels the system in reports. Cosmetic: not part of the Digest.
	Name string `json:"name,omitempty"`
	// Nodes lists the graph's blocks. Names must be unique.
	Nodes []NodeSpec `json:"nodes"`
	// Edges lists directed [from, to] connections by node name.
	Edges [][2]string `json:"edges"`
	// Options, when present, carries the optimizer request embedded with
	// the system.
	Options *Options `json:"options,omitempty"`
}

// NodeSpec is one block. Kind selects which parameter fields are required:
// "gain" needs Gain, "delay" needs Delay, "down"/"up" need Factor, "filter"
// needs Filter; "input", "output" and "adder" take no parameters. Fields
// not belonging to the kind must be absent.
type NodeSpec struct {
	Name   string      `json:"name"`
	Kind   string      `json:"kind"`
	Gain   *float64    `json:"gain,omitempty"`
	Delay  *int        `json:"delay,omitempty"`
	Factor *int        `json:"factor,omitempty"`
	Filter *FilterSpec `json:"filter,omitempty"`
	// Noise attaches a quantization-noise source at the node's output.
	Noise *NoiseSpec `json:"noise,omitempty"`
}

// FilterSpec gives a filter node's transfer function: exactly one of
// explicit coefficients (B, with optional A defaulting to [1]), an FIR
// design, or an IIR design.
type FilterSpec struct {
	B []float64 `json:"b,omitempty"`
	A []float64 `json:"a,omitempty"`
	// FIR requests a windowed-sinc design resolved at build time.
	FIR *FIRDesign `json:"fir,omitempty"`
	// IIR requests a bilinear-transform design resolved at build time.
	IIR *IIRDesign `json:"iir,omitempty"`
	// Desc is a human-readable label. Cosmetic: not part of the Digest.
	Desc string `json:"desc,omitempty"`
}

// FIRDesign mirrors filter.FIRSpec with string enums.
type FIRDesign struct {
	Band   string  `json:"band"` // lowpass | highpass | bandpass | bandstop
	Taps   int     `json:"taps"`
	F1     float64 `json:"f1"`
	F2     float64 `json:"f2,omitempty"`
	Window string  `json:"window,omitempty"` // rectangular (default) | hann | hamming | blackman | kaiser
}

// IIRDesign mirrors filter.IIRSpec with string enums.
type IIRDesign struct {
	Kind     string  `json:"kind"` // butterworth | chebyshev1
	Band     string  `json:"band"`
	Order    int     `json:"order"`
	F1       float64 `json:"f1"`
	F2       float64 `json:"f2,omitempty"`
	RippleDB float64 `json:"ripple_db,omitempty"`
}

// NoiseSpec describes one quantization-noise source (see qnoise.Source).
type NoiseSpec struct {
	// Name identifies the source in results (Fracs keys, cost weights);
	// defaults to the node name.
	Name string `json:"name,omitempty"`
	// Mode is the rounding mode: truncate | round-nearest (default) |
	// round-convergent.
	Mode string `json:"mode,omitempty"`
	// Frac is the initial fractional width — the optimizer's decision
	// variable, excluded from the Digest. Required in [1, 48] unless
	// Override is set.
	Frac int `json:"frac,omitempty"`
	// FracIn selects the discrete PQN model when > Frac.
	FracIn int `json:"frac_in,omitempty"`
	// Override fixes the source moments directly (derived sources).
	Override *MomentsSpec `json:"override,omitempty"`
}

// MomentsSpec fixes a source's mean and variance.
type MomentsSpec struct {
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
}

// Options is the optimizer request: which strategy to run and under what
// budget and width bounds. Exactly one of Budget and BudgetWidth must be
// set: Budget is an absolute output noise power, BudgetWidth expresses the
// budget as the noise power of the uniform assignment at that width (the
// suite's convention, meaningful across systems of very different scale).
type Options struct {
	Strategy     string             `json:"strategy,omitempty"` // default "descent"
	Budget       float64            `json:"budget,omitempty"`
	BudgetWidth  int                `json:"budget_width,omitempty"`
	MinFrac      int                `json:"min_frac,omitempty"` // default 4
	MaxFrac      int                `json:"max_frac,omitempty"` // default 16
	CostPerBit   map[string]float64 `json:"cost_per_bit,omitempty"`
	Seed         int64              `json:"seed,omitempty"`
	AnnealRounds int                `json:"anneal_rounds,omitempty"` // at most MaxAnnealRounds
	// DeadlineMS bounds the job's total latency in milliseconds from
	// submission: a job still queued at the deadline is shed with
	// deadline_exceeded, a running search is truncated to its best-so-far
	// assignment (Result.Degraded). Zero means no deadline. Unlike every
	// other field, the deadline describes the caller's patience, not the
	// requested computation — it is excluded from Fingerprint, so a
	// deadline-bearing submission shares cache identity with the same
	// request un-deadlined.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// MaxAnnealRounds bounds anneal_rounds. One round scores 8 proposals;
// 100,000 rounds search a 32-source system in about 0.6 s of one core and
// allocate about 7 MB.
const MaxAnnealRounds = 100000

// Size limits on a spec, checked before any filter is designed. Each bounds
// work that grows linearly with the field and that a small body could
// otherwise request without limit. At each limit, parsing, building and
// first evaluating a one-block spec at N_PSD 1,024 took, on one core of an
// Intel Xeon at 2.1 GHz:
//
//   - MaxFilterTaps, for FIR taps and the lengths of explicit b and a:
//     20 ms for a 4,095-tap FIR. It is odd, so a highpass or bandstop
//     design, which rounds an even tap count up by one, stays within it
//     too, and every accepted spec exports through FromGraph.
//   - MaxIIROrder, for IIR order: 0.2 ms at order 32.
//   - MaxRateFactor, for down and up factors: 1.8 ms for a factor-64
//     downsampler.
const (
	MaxFilterTaps = 4095
	MaxIIROrder   = 32
	MaxRateFactor = 64
)

// IsZero reports whether no option field is set. DeadlineMS is ignored:
// a request carrying only a deadline still defers to the spec's embedded
// options for what to compute.
func (o Options) IsZero() bool {
	return o.Strategy == "" && o.Budget == 0 && o.BudgetWidth == 0 &&
		o.MinFrac == 0 && o.MaxFrac == 0 && len(o.CostPerBit) == 0 &&
		o.Seed == 0 && o.AnnealRounds == 0
}

// WithDefaults fills unset fields with the service defaults.
func (o Options) WithDefaults() Options {
	if o.Strategy == "" {
		o.Strategy = "descent"
	}
	if o.MinFrac == 0 {
		o.MinFrac = 4
	}
	if o.MaxFrac == 0 {
		o.MaxFrac = 16
	}
	return o
}

// Validate checks the option ranges (after defaulting). The strategy name
// is checked by the consumer against the wlopt registry, not here.
func (o Options) Validate() error {
	if o.MinFrac < 1 || o.MaxFrac <= o.MinFrac || o.MaxFrac > 48 {
		return fmt.Errorf("spec: options: bad width bounds [%d, %d]", o.MinFrac, o.MaxFrac)
	}
	if (o.Budget > 0) == (o.BudgetWidth > 0) {
		return fmt.Errorf("spec: options: exactly one of budget and budget_width must be set")
	}
	if o.Budget < 0 {
		return fmt.Errorf("spec: options: budget %g must be positive", o.Budget)
	}
	if o.BudgetWidth != 0 && (o.BudgetWidth <= o.MinFrac || o.BudgetWidth > o.MaxFrac) {
		return fmt.Errorf("spec: options: budget_width %d outside (%d, %d]", o.BudgetWidth, o.MinFrac, o.MaxFrac)
	}
	for name, w := range o.CostPerBit {
		if w <= 0 {
			return fmt.Errorf("spec: options: cost_per_bit[%q] = %g must be positive", name, w)
		}
	}
	if o.AnnealRounds > MaxAnnealRounds {
		return fmt.Errorf("spec: options: anneal_rounds %d above the maximum %d", o.AnnealRounds, MaxAnnealRounds)
	}
	if o.DeadlineMS < 0 {
		return fmt.Errorf("spec: options: deadline_ms %d must not be negative", o.DeadlineMS)
	}
	return nil
}

// Fingerprint returns a stable hash of the defaulted options — the second
// half of the service's content-addressed job key (Digest covers the
// system, Fingerprint the request). The deadline is excluded: it bounds
// how long the caller will wait, not what result is being asked for, so
// it must not split the cache — and a degraded (deadline-truncated)
// result is never cached at all, so the shared identity can never serve
// a truncated answer to an un-deadlined caller.
func (o Options) Fingerprint() string {
	o = o.WithDefaults()
	o.DeadlineMS = 0
	return hashJSON(o)
}

// Parse decodes and fully validates a spec document. Syntax errors carry
// the line and column of the offending byte; semantic errors name the
// nodes[i] or edges[i] element (and its node name) they refer to. The
// returned spec is normalized (Version set) and is guaranteed to Build.
func Parse(data []byte) (*Spec, error) {
	sp, err := decode(data)
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// decode reads a spec document without validating it.
func decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, posError(data, err)
	}
	// Trailing garbage after the document is a structural error too.
	if dec.More() {
		return nil, atOffset(data, dec.InputOffset(), "unexpected data after document")
	}
	return &sp, nil
}

// PosError is a parse error that carries the 1-based line and column of
// the offending byte, so API layers can report the position
// machine-readably (the wire error envelope's bad_spec code) instead of
// scraping it back out of the message.
type PosError struct {
	Line, Col int
	Msg       string // the full message, position included
}

func (e *PosError) Error() string { return e.Msg }

// posError rewrites encoding/json errors with a line:column position.
func posError(data []byte, err error) error {
	switch e := err.(type) {
	case *json.SyntaxError:
		return atOffset(data, e.Offset, fmt.Sprintf("%v", err))
	case *json.UnmarshalTypeError:
		return atOffset(data, e.Offset, fmt.Sprintf("cannot unmarshal %s into %s", e.Value, e.Field))
	}
	return fmt.Errorf("spec: %v", err)
}

// atOffset builds a PosError for a byte offset (1-based line/column).
func atOffset(data []byte, off int64, msg string) *PosError {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line, col := 1, 1
	for _, b := range data[:off] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &PosError{
		Line: line,
		Col:  col,
		Msg:  fmt.Sprintf("spec: line %d, column %d: %s", line, col, msg),
	}
}

// Validate checks the spec semantically, normalizing Version, and verifies
// that the described graph builds and is evaluable (single output, acyclic,
// well-formed fan-in). Error messages are positional: nodes[i] ("name"),
// edges[i].
func (sp *Spec) Validate() error {
	_, _, err := sp.check()
	return err
}

// check is Validate, Digest and Build in one pass: it validates the spec,
// designs each filter once and assembles the graph once, and returns the
// graph and every node's resolved filter (zero for other kinds), so none
// of the three designs a filter or assembles the graph a second time.
func (sp *Spec) check() (*sfg.Graph, []filter.Filter, error) {
	if sp.Version == 0 {
		sp.Version = Version
	}
	if sp.Version != Version {
		return nil, nil, fmt.Errorf("spec: unsupported version %d (want %d)", sp.Version, Version)
	}
	if len(sp.Nodes) == 0 {
		return nil, nil, fmt.Errorf("spec: no nodes")
	}
	seen := make(map[string]int, len(sp.Nodes))
	// Source names key optimizer results (Fracs) and cost weights
	// (cost_per_bit), so they must be unique across the whole spec.
	sources := make(map[string]int)
	filters := make([]filter.Filter, len(sp.Nodes))
	for i := range sp.Nodes {
		n := &sp.Nodes[i]
		at := func(format string, args ...any) error {
			return fmt.Errorf("spec: nodes[%d] (%q): %s", i, n.Name, fmt.Sprintf(format, args...))
		}
		if n.Name == "" {
			return nil, nil, fmt.Errorf("spec: nodes[%d]: missing name", i)
		}
		if j, dup := seen[n.Name]; dup {
			return nil, nil, at("duplicate of nodes[%d]", j)
		}
		seen[n.Name] = i
		if err := n.validateKind(); err != nil {
			return nil, nil, at("%v", err)
		}
		if n.Filter != nil {
			// Designs must resolve; report their errors at parse time, not
			// build time.
			flt, err := n.Filter.resolve()
			if err != nil {
				return nil, nil, at("%v", err)
			}
			filters[i] = flt
		}
		if n.Noise != nil {
			if n.Kind == "output" {
				return nil, nil, at("noise source on the output node")
			}
			if err := n.Noise.validate(); err != nil {
				return nil, nil, at("noise: %v", err)
			}
			srcName := n.Noise.Name
			if srcName == "" {
				srcName = n.Name // sfg.SetNoise defaults the same way
			}
			if j, dup := sources[srcName]; dup {
				return nil, nil, at("noise: source name %q already used by nodes[%d]", srcName, j)
			}
			sources[srcName] = i
		}
	}
	for i, e := range sp.Edges {
		for side, name := range e {
			if _, ok := seen[name]; !ok {
				return nil, nil, fmt.Errorf("spec: edges[%d]: unknown node %q (side %d)", i, name, side)
			}
		}
		if e[0] == e[1] {
			return nil, nil, fmt.Errorf("spec: edges[%d]: self loop on %q", i, e[0])
		}
	}
	if sp.Options != nil {
		if err := sp.Options.WithDefaults().Validate(); err != nil {
			return nil, nil, err
		}
	}
	// Structural validation: the graph must assemble, pass sfg.Validate
	// and be acyclic — build reports those with node names attached.
	g, err := sp.build(filters)
	if err != nil {
		return nil, nil, err
	}
	return g, filters, nil
}

// validateKind checks the kind string and that exactly the parameter fields
// of that kind are present.
func (n *NodeSpec) validateKind() error {
	type field struct {
		name string
		set  bool
	}
	fields := []field{
		{"gain", n.Gain != nil},
		{"delay", n.Delay != nil},
		{"factor", n.Factor != nil},
		{"filter", n.Filter != nil},
	}
	want := map[string]string{
		"input": "", "output": "", "adder": "",
		"gain": "gain", "delay": "delay", "down": "factor", "up": "factor",
		"filter": "filter",
	}
	req, ok := want[n.Kind]
	if !ok {
		return fmt.Errorf("unknown kind %q (want input|output|filter|gain|delay|adder|down|up)", n.Kind)
	}
	for _, f := range fields {
		if f.set && f.name != req {
			return fmt.Errorf("field %q does not belong to kind %q", f.name, n.Kind)
		}
		if !f.set && f.name == req {
			return fmt.Errorf("kind %q requires field %q", n.Kind, f.name)
		}
	}
	switch n.Kind {
	case "delay":
		if *n.Delay < 0 {
			return fmt.Errorf("negative delay %d", *n.Delay)
		}
	case "down", "up":
		if *n.Factor < 1 {
			return fmt.Errorf("factor %d < 1", *n.Factor)
		}
		if *n.Factor > MaxRateFactor {
			return fmt.Errorf("factor %d above the maximum %d", *n.Factor, MaxRateFactor)
		}
	case "filter":
		if err := n.Filter.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (f *FilterSpec) validate() error {
	forms := 0
	if len(f.B) > 0 {
		forms++
	}
	if f.FIR != nil {
		forms++
	}
	if f.IIR != nil {
		forms++
	}
	if forms != 1 {
		return fmt.Errorf("filter needs exactly one of coefficients (b), fir, iir")
	}
	if len(f.B) == 0 && len(f.A) > 0 {
		return fmt.Errorf("filter field \"a\" requires \"b\"")
	}
	if len(f.B) > 0 && len(f.A) > 0 && f.A[0] == 0 {
		return fmt.Errorf("filter a[0] must be nonzero")
	}
	if len(f.B) > MaxFilterTaps || len(f.A) > MaxFilterTaps {
		return fmt.Errorf("filter b and a lengths %d and %d, above the maximum %d", len(f.B), len(f.A), MaxFilterTaps)
	}
	if f.FIR != nil && f.FIR.Taps > MaxFilterTaps {
		return fmt.Errorf("fir taps %d above the maximum %d", f.FIR.Taps, MaxFilterTaps)
	}
	if f.IIR != nil && f.IIR.Order > MaxIIROrder {
		return fmt.Errorf("iir order %d above the maximum %d", f.IIR.Order, MaxIIROrder)
	}
	return nil
}

// resolve produces the concrete filter.Filter.
func (f *FilterSpec) resolve() (filter.Filter, error) {
	switch {
	case len(f.B) > 0:
		a := f.A
		if len(a) == 0 {
			a = []float64{1}
		}
		flt := filter.Filter{
			B:    append([]float64(nil), f.B...),
			A:    append([]float64(nil), a...),
			Desc: f.Desc,
		}
		return flt.Normalize(), nil
	case f.FIR != nil:
		band, err := parseBand(f.FIR.Band)
		if err != nil {
			return filter.Filter{}, err
		}
		win, err := parseWindow(f.FIR.Window)
		if err != nil {
			return filter.Filter{}, err
		}
		return filter.DesignFIR(filter.FIRSpec{
			Band: band, Taps: f.FIR.Taps, F1: f.FIR.F1, F2: f.FIR.F2, Window: win,
		})
	case f.IIR != nil:
		band, err := parseBand(f.IIR.Band)
		if err != nil {
			return filter.Filter{}, err
		}
		kind, err := parseIIRKind(f.IIR.Kind)
		if err != nil {
			return filter.Filter{}, err
		}
		return filter.DesignIIR(filter.IIRSpec{
			Kind: kind, Band: band, Order: f.IIR.Order,
			F1: f.IIR.F1, F2: f.IIR.F2, RippleDB: f.IIR.RippleDB,
		})
	}
	return filter.Filter{}, fmt.Errorf("empty filter spec")
}

func (ns *NoiseSpec) validate() error {
	if _, err := parseMode(ns.Mode); err != nil {
		return err
	}
	if ns.Override == nil {
		if ns.Frac < 1 || ns.Frac > 48 {
			return fmt.Errorf("frac %d outside [1, 48]", ns.Frac)
		}
	} else {
		if ns.Override.Variance < 0 {
			return fmt.Errorf("override variance %g < 0", ns.Override.Variance)
		}
		if ns.Frac < 0 || ns.Frac > 48 {
			return fmt.Errorf("frac %d outside [0, 48]", ns.Frac)
		}
	}
	if ns.FracIn < 0 || ns.FracIn > 48 {
		return fmt.Errorf("frac_in %d outside [0, 48]", ns.FracIn)
	}
	return nil
}

// Marshal renders the spec as indented JSON with a trailing newline. The
// output is a fixed point: Parse(Marshal(sp)) marshals to identical bytes.
func (sp *Spec) Marshal() ([]byte, error) {
	cp := *sp
	if cp.Version == 0 {
		cp.Version = Version
	}
	data, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// enum parsing — the string names follow the Stringer forms of the
// underlying types.

func parseBand(s string) (filter.BandType, error) {
	switch s {
	case "lowpass":
		return filter.Lowpass, nil
	case "highpass":
		return filter.Highpass, nil
	case "bandpass":
		return filter.Bandpass, nil
	case "bandstop":
		return filter.Bandstop, nil
	}
	return 0, fmt.Errorf("unknown band %q (want lowpass|highpass|bandpass|bandstop)", s)
}

func parseWindow(s string) (dsp.WindowType, error) {
	switch s {
	case "", "rectangular":
		return dsp.Rectangular, nil
	case "hann":
		return dsp.Hann, nil
	case "hamming":
		return dsp.Hamming, nil
	case "blackman":
		return dsp.Blackman, nil
	case "kaiser":
		return dsp.Kaiser, nil
	}
	return 0, fmt.Errorf("unknown window %q (want rectangular|hann|hamming|blackman|kaiser)", s)
}

func parseIIRKind(s string) (filter.IIRKind, error) {
	switch s {
	case "butterworth":
		return filter.Butterworth, nil
	case "chebyshev1":
		return filter.Chebyshev1, nil
	}
	return 0, fmt.Errorf("unknown IIR kind %q (want butterworth|chebyshev1)", s)
}

func parseMode(s string) (fixed.RoundMode, error) {
	switch s {
	case "truncate":
		return fixed.Truncate, nil
	case "", "round-nearest":
		return fixed.RoundNearest, nil
	case "round-convergent":
		return fixed.RoundConvergent, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want truncate|round-nearest|round-convergent)", s)
}

func modeName(m fixed.RoundMode) string { return m.String() }
