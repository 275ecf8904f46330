package api

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/spec"
)

// Bounds of a SpecMemo. Raw bytes are capped at one default-size (1 MiB)
// request body. A parsed spec takes a few times its text in memory (11 KB
// for a 4.5 KB, 32-source explore spec), so a full memo holds a few MiB.
// A spec longer than specMemoBytes is parsed on every submit and never
// held, so raising MaxBody cannot grow the memo. The entry cap bounds the
// per-entry overhead of many small specs.
const (
	specMemoEntries = 256
	specMemoBytes   = 1 << 20
)

// SpecMemo maps the exact bytes of an inline spec to that spec parsed,
// validated and digested once, so a spec submitted again costs one map
// lookup, and every job submitted with those bytes shares one read-only
// parsed spec. Only successes are held: a bad spec is parsed, and
// rejected, on every submit. It keeps the most recently used entries
// within specMemoEntries and specMemoBytes. The bytes only skip work: two
// spellings of one system are two entries with one digest, and the digest
// stays the result-cache and shard key. The backend server and the router
// each own one.
type SpecMemo struct {
	mu      sync.Mutex
	entries map[string]*list.Element // raw spec → element of lru
	lru     list.List                // of *memoEntry, most recent first
	bytes   int                      // raw bytes of every held spec

	hits, misses *metrics.Counter
}

type memoEntry struct {
	raw   string
	ready chan struct{}  // closed once the parse of raw has finished
	d     *spec.Digested // set before ready closes, if the parse succeeded
}

// NewSpecMemo makes an empty memo that counts its hits and misses on reg
// as <prefix>_spec_memo_hits_total and <prefix>_spec_memo_misses_total.
func NewSpecMemo(reg *metrics.Registry, prefix string) *SpecMemo {
	return &SpecMemo{
		entries: make(map[string]*list.Element),
		hits:    reg.Counter(prefix+"_spec_memo_hits_total", "Inline specs answered from the spec memo, without a parse."),
		misses:  reg.Counter(prefix+"_spec_memo_misses_total", "Inline specs parsed, validated and digested because the spec memo did not hold their bytes."),
	}
}

// parse returns the digested spec for raw: the held one when these exact
// bytes parsed before, else a fresh spec.ParseDigested, held if it
// succeeds. Concurrent first submissions of the same bytes wait for one
// parse instead of each running their own.
func (m *SpecMemo) parse(raw []byte) (*spec.Digested, error) {
	m.mu.Lock()
	if el, ok := m.entries[string(raw)]; ok {
		m.lru.MoveToFront(el)
		m.mu.Unlock()
		e := el.Value.(*memoEntry)
		<-e.ready
		if e.d != nil {
			m.hits.Inc()
			return e.d, nil
		}
		// The parse waited on failed; fail with an error of our own.
		m.misses.Inc()
		return spec.ParseDigested(raw)
	}
	if len(raw) > specMemoBytes {
		m.mu.Unlock()
		m.misses.Inc()
		return spec.ParseDigested(raw)
	}
	e := &memoEntry{raw: string(raw), ready: make(chan struct{})}
	m.entries[e.raw] = m.lru.PushFront(e)
	m.bytes += len(e.raw)
	for len(m.entries) > specMemoEntries || m.bytes > specMemoBytes {
		m.dropLocked(m.lru.Back())
	}
	m.mu.Unlock()
	m.misses.Inc()
	d, err := spec.ParseDigested(raw)
	m.mu.Lock()
	if err == nil {
		e.d = d
	} else if el, ok := m.entries[e.raw]; ok && el.Value == e {
		m.dropLocked(el) // only successes are held
	}
	m.mu.Unlock()
	close(e.ready)
	return d, err
}

// dropLocked removes one entry; m.mu must be held.
func (m *SpecMemo) dropLocked(el *list.Element) {
	e := m.lru.Remove(el).(*memoEntry)
	delete(m.entries, e.raw)
	m.bytes -= len(e.raw)
}

// ParseSubmitBody decodes a POST /v1/jobs body: a service.Request
// envelope, or, as a convenience, a raw spec document with its embedded
// options (as produced by spec.Marshal, e.g.
// curl -d @examples/specs/comb-notch.json). The envelope's spec value, or
// the whole raw document, goes through the memo, and the request carries
// it Parsed; the options are decoded from every body. A body the memo
// cannot serve (one naming both a system and a spec, or one whose spec
// fails to parse) takes parseSubmitBody's path, so it is rejected exactly
// as an unmemoized server would reject it.
func (m *SpecMemo) ParseSubmitBody(body []byte) (service.Request, error) {
	var env struct {
		System  string          `json:"system"`
		Spec    json.RawMessage `json:"spec"`
		Options spec.Options    `json:"options"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&env)
	hasSpec := len(env.Spec) > 0 && string(env.Spec) != "null"
	switch {
	case err == nil && env.System != "":
		if !hasSpec {
			return service.Request{System: env.System, Options: env.Options}, nil
		}
	case err == nil && hasSpec:
		if d, err := m.parse(env.Spec); err == nil {
			return service.Request{Parsed: d, Options: env.Options}, nil
		}
	default:
		if d, err := m.parse(body); err == nil {
			return service.Request{Parsed: d}, nil
		}
	}
	return parseSubmitBody(body)
}

// parseSubmitBody is ParseSubmitBody without the memo. The envelope is
// strict: a typoed field inside {"spec": ...} is rejected, exactly like
// the same document POSTed raw through spec.Parse; silently dropping an
// unknown field would optimize a different problem than the client
// wrote. The spec it returns is not yet validated; the service does
// that, after the options.
func parseSubmitBody(body []byte) (service.Request, error) {
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || (req.System == "" && req.Spec == nil) {
		sp, perr := spec.Parse(body)
		if perr != nil {
			if err == nil {
				err = fmt.Errorf("request has neither system nor spec")
			}
			return req, fmt.Errorf("%w: %v (as raw spec: %w)", service.ErrBadSpec, err, perr)
		}
		req = service.Request{Spec: sp}
	}
	return req, nil
}
