package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"path"
	"strings"

	"llhsc/internal/runningexample"
	"llhsc/internal/service"
)

// inputs holds the hand-written known answers and a frozen copy of the
// corpus files the corpus-lint workload sends, so a change to the
// repository's own testdata cannot change what the benchmark measures.
//
//go:embed testdata/expected testdata/corpus
var inputs embed.FS

// serverCacheSize is llhsc-server's default -cache-size.
const serverCacheSize = 256

// streamLen is how many draws a pool's send order holds; the clients
// wrap around, and no run sends that many requests in one round.
const streamLen = 1 << 16

// A workload is one traffic mix: an endpoint, the service's check-cache
// size, and a seeded pool of request bodies with their known answers.
type workload struct {
	name      string
	endpoint  string
	cacheSize int
	build     func(seed int64) (*pool, error)
}

// pool is a workload's generated input: the encoded request bodies the
// service receives, the known answer for each, and the seeded order in
// which the clients send them.
type pool struct {
	bodies   [][]byte
	expected []verdict
	stream   []int // body indices in send order
}

// workloads is every workload, in the order runs and reports use.
var workloads = []workload{
	{name: "example", endpoint: "/check", build: examplePool("")},
	{name: "example-lifted", endpoint: "/check", build: examplePool("lifted")},
	{name: "line-cached", endpoint: "/check", cacheSize: serverCacheSize, build: linePool},
	{name: "corpus-lint", endpoint: "/lint", build: corpusPool},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (p *pool) add(req any, want verdict) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	p.bodies = append(p.bodies, body)
	p.expected = append(p.expected, want)
	return nil
}

// uniformStream sends the n bodies in blocks that each hold every body
// once, in an order rng shuffles anew for each block. The seed changes
// the order of requests, never how many of each kind a run sends.
func uniformStream(rng *rand.Rand, n int) []int {
	s := make([]int, 0, streamLen+n)
	for len(s) < streamLen {
		s = append(s, rng.Perm(n)...)
	}
	return s[:streamLen]
}

// smoothStream sends body i in the share weights[i] / sum(weights),
// spread as evenly as smooth weighted round-robin spreads it: any run of
// consecutive requests holds each body about its share of the run. A
// random draw would leave a few-second window short or long on the rare
// bodies, and with them on cache misses.
func smoothStream(weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	// One period: after total picks every body has come up weights[i]
	// times and the credits are back at zero.
	credit := make([]int, len(weights))
	period := make([]int, total)
	for k := range period {
		best := 0
		for i, w := range weights {
			credit[i] += w
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		period[k] = best
	}
	s := make([]int, 0, streamLen+total)
	for len(s) < streamLen {
		s = append(s, period...)
	}
	return s[:streamLen]
}

// knownAnswer is one hand-written entry of testdata/expected: the inputs
// that select a request plus the verdict the rules give for it.
type knownAnswer struct {
	VMs      [][]string        `json:"vms"`
	File     string            `json:"file"`
	Defines  map[string]string `json:"defines"`
	OK       bool              `json:"ok"`
	Findings []string          `json:"findings"`
}

func readKnownAnswers(name string) ([]knownAnswer, error) {
	raw, err := inputs.ReadFile("testdata/expected/" + name)
	if err != nil {
		return nil, err
	}
	var out []knownAnswer
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return out, nil
}

// examplePool is the paper's running example (Fig. 1a, Listings 1, 2
// and 4) in uniform traffic over the hand-written two-VM selections of
// testdata/expected/example.json, checked in the given mode ("" is the
// server default, enumerate).
func examplePool(mode string) func(seed int64) (*pool, error) {
	return func(seed int64) (*pool, error) {
		answers, err := readKnownAnswers("example.json")
		if err != nil {
			return nil, err
		}
		model, err := runningexample.Model()
		if err != nil {
			return nil, err
		}
		p := &pool{}
		for _, a := range answers {
			req := service.CheckRequest{
				CoreDTS:      runningexample.CoreDTS,
				Includes:     map[string]string{"cpus.dtsi": runningexample.CPUsDTSI},
				Deltas:       runningexample.DeltasSource,
				FeatureModel: model.Format(),
				VMs:          a.VMs,
				Mode:         mode,
			}
			if err := p.add(req, newVerdict(a.OK, a.Findings)); err != nil {
				return nil, err
			}
		}
		p.stream = uniformStream(rand.New(rand.NewSource(seed)), len(p.bodies))
		return p, nil
	}
}

// corpusPool lints the kernel-style corpus boards, preprocessed and with
// the semantic checks on, in uniform traffic. Every request carries the
// whole include tree, keyed so that the service's include path "."
// resolves both "soc.dtsi" and <dt-bindings/...>.
func corpusPool(seed int64) (*pool, error) {
	answers, err := readKnownAnswers("corpus.json")
	if err != nil {
		return nil, err
	}
	const dir = "testdata/corpus"
	includes := map[string]string{}
	err = fs.WalkDir(inputs, dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || path.Ext(p) == ".dts" {
			return err
		}
		src, err := inputs.ReadFile(p)
		key := strings.TrimPrefix(strings.TrimPrefix(p, dir+"/"), "include/")
		includes[key] = string(src)
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &pool{}
	for _, a := range answers {
		src, err := inputs.ReadFile(dir + "/" + a.File)
		if err != nil {
			return nil, err
		}
		req := service.LintRequest{
			DTS:        string(src),
			Includes:   includes,
			Defines:    a.Defines,
			Preprocess: true,
			Semantic:   true,
		}
		if err := p.add(req, newVerdict(a.OK, a.Findings)); err != nil {
			return nil, err
		}
	}
	p.stream = uniformStream(rand.New(rand.NewSource(seed)), len(p.bodies))
	return p, nil
}
