package spec

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/filter"
)

// Digest returns a content hash identifying the optimization problem the
// spec describes: "sha256:" plus 64 hex digits over a canonical form of the
// system. Two specs that describe the same problem hash identically:
//
//   - node order and edge order do not matter (nodes are canonicalized in
//     name order, edges in lexicographic order — names must be unique, which
//     Validate guarantees);
//   - cosmetic fields (Name, filter Desc) are excluded;
//   - filter designs are resolved to their coefficients, so a designed
//     filter and its explicit-coefficient form are the same content;
//   - per-source Frac values are excluded — they are the optimizer's
//     decision variables, not part of the problem (FracIn, the rounding
//     mode and moment overrides are part of the noise model and are
//     included);
//   - Options are excluded: the service keys its job cache on
//     (Digest, Options.Fingerprint), so the request rides separately.
//
// Digest validates the spec first and returns an error for specs that do
// not build.
func (sp *Spec) Digest() (string, error) {
	_, filters, err := sp.check()
	if err != nil {
		return "", err
	}
	return sp.digest(filters), nil
}

// digest hashes the canonical form of a spec that check has passed, from
// the filters check resolved.
func (sp *Spec) digest(filters []filter.Filter) string {
	type canonNoise struct {
		Name     string       `json:"name"`
		Mode     string       `json:"mode"`
		FracIn   int          `json:"frac_in,omitempty"`
		Override *MomentsSpec `json:"override,omitempty"`
	}
	type canonFilter struct {
		B []float64 `json:"b"`
		A []float64 `json:"a"`
	}
	type canonNode struct {
		Name   string       `json:"name"`
		Kind   string       `json:"kind"`
		Gain   *float64     `json:"gain,omitempty"`
		Delay  *int         `json:"delay,omitempty"`
		Factor *int         `json:"factor,omitempty"`
		Filter *canonFilter `json:"filter,omitempty"`
		Noise  *canonNoise  `json:"noise,omitempty"`
	}
	type canonSpec struct {
		Version int         `json:"version"`
		Nodes   []canonNode `json:"nodes"`
		Edges   [][2]string `json:"edges"`
	}

	cs := canonSpec{Version: Version, Nodes: make([]canonNode, 0, len(sp.Nodes))}
	for i := range sp.Nodes {
		n := &sp.Nodes[i]
		cn := canonNode{Name: n.Name, Kind: n.Kind, Gain: n.Gain, Delay: n.Delay, Factor: n.Factor}
		if n.Filter != nil {
			cn.Filter = &canonFilter{B: filters[i].B, A: filters[i].A}
		}
		if n.Noise != nil {
			name := n.Noise.Name
			if name == "" {
				// sfg.SetNoise defaults the source name to the node name;
				// canonicalize the same way so the spec and its built graph
				// agree on identity.
				name = n.Name
			}
			mode, _ := parseMode(n.Noise.Mode)
			cn.Noise = &canonNoise{Name: name, Mode: modeName(mode), FracIn: n.Noise.FracIn, Override: n.Noise.Override}
		}
		cs.Nodes = append(cs.Nodes, cn)
	}
	sort.Slice(cs.Nodes, func(i, j int) bool { return cs.Nodes[i].Name < cs.Nodes[j].Name })
	cs.Edges = append([][2]string(nil), sp.Edges...)
	sort.Slice(cs.Edges, func(i, j int) bool {
		if cs.Edges[i][0] != cs.Edges[j][0] {
			return cs.Edges[i][0] < cs.Edges[j][0]
		}
		return cs.Edges[i][1] < cs.Edges[j][1]
	})
	return hashJSON(cs)
}

// Digested is a validated spec together with its content digest. Only
// ParseDigested makes one, so the digest is always the spec's own. It is
// made to be shared: every holder reads the spec and none modifies it.
type Digested struct {
	spec   *Spec
	digest string
}

// ParseDigested is Parse followed by Digest in one validation pass, so
// each filter is designed once for both.
func ParseDigested(data []byte) (*Digested, error) {
	sp, err := decode(data)
	if err != nil {
		return nil, err
	}
	_, filters, err := sp.check()
	if err != nil {
		return nil, err
	}
	return &Digested{spec: sp, digest: sp.digest(filters)}, nil
}

// Spec returns the parsed spec, which the caller must not modify.
func (d *Digested) Spec() *Spec { return d.spec }

// Digest returns the spec's content digest.
func (d *Digested) Digest() string { return d.digest }

// hashJSON marshals v (struct marshaling is deterministic; float64s use the
// shortest round-trip form, so equal bit patterns hash equally) and returns
// "sha256:<hex>".
func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Only reachable with NaN/Inf smuggled into a hand-built struct;
		// parsed specs cannot contain them.
		panic(fmt.Sprintf("spec: canonical marshal: %v", err))
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(data))
}
