package service

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"

	"llhsc/internal/checkcache"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
)

// frontEnd is what /check parses from a body: the core tree, the delta
// set and the feature model. It is read-only once parsed (DESIGN.md
// §8), so concurrent requests may share one.
type frontEnd struct {
	key    string // frontEndKey of the inputs, the pipeline's Identity
	core   *dts.Tree
	deltas *delta.Set
	model  *featmodel.Model
}

// frontEndMemo holds the front end the last successful /check parse
// produced, under the digest of every input it parsed, so a product
// line checked over and over is parsed once, not once per request. It
// holds one entry: every measured workload checks a single product line,
// and one entry retains no more than one request's parse, which the
// parse limits (-max-body, counting every inclusion and expansion)
// already bound. Only successful parses are stored: a failing body is
// parsed, and answered, anew every time. Two racing misses both parse;
// either result is correct, and the later store is kept.
type frontEndMemo struct {
	last         atomic.Pointer[frontEnd]
	hits, misses obs.Counter
}

// get returns the front end stored under key and counts the hit or
// miss.
func (m *frontEndMemo) get(key string) (frontEnd, bool) {
	if fe := m.last.Load(); fe != nil && fe.key == key {
		m.hits.Inc()
		return *fe, true
	}
	m.misses.Inc()
	return frontEnd{}, false
}

// put replaces the memoised front end with fe, stored under fe.key.
func (m *frontEndMemo) put(fe frontEnd) {
	m.last.Store(&fe)
}

// registerMetrics exposes the memo's hit and miss counters on reg.
func (m *frontEndMemo) registerMetrics(reg *obs.Registry) {
	reg.Register("llhsc_frontend_memo_hits_total",
		"/check requests whose core DTS, deltas and feature model came parsed from the front-end memo.", &m.hits)
	reg.Register("llhsc_frontend_memo_misses_total",
		"/check requests that parsed their core DTS, deltas and feature model.", &m.misses)
}

// frontEndKey digests every input the front end parses, each one
// length-delimited and the two maps in key order.
func frontEndKey(req *CheckRequest) string {
	k := checkcache.NewHasher()
	k.Part(req.CoreDTS)
	for _, m := range []map[string]string{req.Includes, req.Defines} {
		k.Part(strconv.Itoa(len(m)))
		keys := make([]string, 0, len(m))
		for name := range m {
			keys = append(keys, name)
		}
		slices.Sort(keys)
		for _, name := range keys {
			k.Part(name)
			k.Part(m[name])
		}
	}
	k.Part(strconv.FormatBool(req.Preprocess))
	k.Part(req.Deltas)
	k.Part(req.FeatureModel)
	return k.Sum()
}

// parseFrontEnd returns the request's parsed front end, from the memo
// when an identical body parsed before. A parse failure answers the
// status the failing parser's input class calls for.
func (s *server) parseFrontEnd(req *CheckRequest) (frontEnd, int, error) {
	key := frontEndKey(req)
	if fe, ok := s.memo.get(key); ok {
		return fe, http.StatusOK, nil
	}
	tree, err := s.parseSource("core.dts", req.CoreDTS, req.Includes, req.Defines, req.Preprocess)
	if err != nil {
		return frontEnd{}, inputStatus(err), fmt.Errorf("core DTS: %w", err)
	}
	deltas, err := delta.Parse("deltas", req.Deltas)
	if err != nil {
		return frontEnd{}, http.StatusUnprocessableEntity, fmt.Errorf("deltas: %w", err)
	}
	model, err := featmodel.ParseModel("featuremodel", req.FeatureModel)
	if err != nil {
		return frontEnd{}, http.StatusUnprocessableEntity, fmt.Errorf("feature model: %w", err)
	}
	fe := frontEnd{key: key, core: tree, deltas: deltas, model: model}
	s.memo.put(fe)
	return fe, http.StatusOK, nil
}
