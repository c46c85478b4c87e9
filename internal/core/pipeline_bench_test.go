package core

import (
	"testing"

	"cosmo/internal/classifier"
	"cosmo/internal/filter"
	"cosmo/internal/llm"
	"cosmo/internal/textproc"
)

// Per-stage pipeline benchmarks. Each exercises one embarrassingly
// parallel stage with Workers=0 (GOMAXPROCS), so running with
// `-cpu 1,4,8` sweeps the worker count and shows the fan-out speedup:
//
//	go test -run='^$' -bench=BenchmarkPipeline -cpu 1,4,8 ./internal/core
//
// The stage inputs come from one shared end-to-end run (the cached
// pipeline fixture) so every -cpu variant benchmarks identical work.

func BenchmarkPipelineGenerate(b *testing.B) {
	res := run(b)
	cfg := DefaultConfig()
	teacher := llm.NewTeacher(res.Catalog, cfg.Teacher)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := generate(res, teacher, cfg.GenerationsPerBehavior, 0)
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkPipelineFilter(b *testing.B) {
	res := run(b)
	cfg := DefaultConfig()
	teacher := llm.NewTeacher(res.Catalog, cfg.Teacher)
	cands := generate(res, teacher, cfg.GenerationsPerBehavior, 0)
	fcfg := cfg.Filter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept, _, _ := filter.New(fcfg).Run(textproc.NewVocab(), cands)
		if len(kept) == 0 {
			b.Fatal("filter kept nothing")
		}
	}
}

func BenchmarkPipelineScore(b *testing.B) {
	res := run(b)
	v := textproc.NewVocab()
	classifier.AddTexts(v, res.Kept)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scored := res.Critic.Score(v, res.Kept, 0)
		if len(scored) != len(res.Kept) {
			b.Fatal("score count mismatch")
		}
	}
}

func BenchmarkPipelineExpand(b *testing.B) {
	res := run(b)
	cfg := DefaultConfig()
	v := textproc.NewVocab()
	ctxs := expandContexts(res, v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := expandCandidates(res, v, ctxs, cfg)
		if len(groups) != len(res.SampledSearchBuys) {
			b.Fatal("expansion group count mismatch")
		}
	}
}
