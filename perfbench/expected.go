package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
)

// expected.json pins every output the benchmark checks. Regenerate it
// with --record only when a change is meant to alter simulated
// statistics or rendered text.
//
//go:embed expected.json
var expectedJSON []byte

type expectedOutputs struct {
	// Sim maps "kernel/org" to the digest of that simulation's
	// pipeline.Stats (plus core.Stats on the content-aware file) at
	// suiteScale.
	Sim map[string]string `json:"sim-suite"`
	// Cold and Warm map experiment ids to the digest of their rendered
	// text at coldScale and warmScale.
	Cold map[string]string `json:"study-cold"`
	Warm map[string]string `json:"study-warm"`
	// ColdSims is the number of simulations one study-cold pass runs.
	ColdSims uint64 `json:"study-cold-simulations"`
}

var expected = func() expectedOutputs {
	var e expectedOutputs
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json does not parse: %v", err))
	}
	return e
}()

// recordDigests prints the outputs of one pass of every workload in
// expected.json's shape.
func recordDigests() error {
	tmp, err := os.MkdirTemp(".bench_build", "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r := &run{tmp: tmp, rng: rand.New(rand.NewSource(1))}
	var e expectedOutputs

	e.Sim = map[string]string{}
	kernels, err := buildKernels(nil, "", suiteScale)
	if err != nil {
		return err
	}
	for _, k := range kernels {
		for _, carf := range []bool{false, true} {
			res, err := simulate(nil, "", k, carf)
			if err != nil {
				return err
			}
			e.Sim[res.kernel+"/"+res.org()] = res.digest
		}
	}

	cold, err := r.studyPass(allExperiments(), coldScale, tmp+"/cold", nil, "cold")
	if err != nil {
		return err
	}
	e.Cold, e.ColdSims = cold.digests, cold.sched.Misses

	if _, err := r.studyPass(warmExperiments, warmScale, tmp+"/warm", nil, "populate"); err != nil {
		return err
	}
	warm, err := r.studyPass(warmExperiments, warmScale, tmp+"/warm", nil, "warm")
	if err != nil {
		return err
	}
	e.Warm = warm.digests

	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
