package service

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"

	"llhsc/internal/checkcache"
	"llhsc/internal/core"
	"llhsc/internal/obs"
)

// frontEndMemo holds the front end the last successful /check parse
// produced, whose Identity is the digest of every input it parsed, so
// a product line checked over and over is parsed once, and lifted at
// most once (core.FrontEnd.Lifted), not once per request. It holds one
// entry: every measured workload checks a single product line, and one
// entry retains no more than one request's parse, which the parse
// limits (-max-body, counting every inclusion and expansion) already
// bound. Only successful parses are stored: a failing body is parsed,
// and answered, anew every time. Two racing misses both parse; either
// result is correct, and the later store is kept.
type frontEndMemo struct {
	last         atomic.Pointer[core.FrontEnd]
	hits, misses obs.Counter
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
func (s *server) parseFrontEnd(req *CheckRequest) (*core.FrontEnd, int, error) {
	key := frontEndKey(req)
	if fe := s.memo.last.Load(); fe != nil && fe.Identity == key {
		s.memo.hits.Inc()
		return fe, http.StatusOK, nil
	}
	s.memo.misses.Inc()
	tree, err := s.parseSource("core.dts", req.CoreDTS, req.Includes, req.Defines, req.Preprocess)
	if err != nil {
		return nil, inputStatus(err), fmt.Errorf("core DTS: %w", err)
	}
	fe, err := core.ParseFrontEnd(key, tree, "deltas", req.Deltas, "featuremodel", req.FeatureModel)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	s.memo.last.Store(fe)
	return fe, http.StatusOK, nil
}
