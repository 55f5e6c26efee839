package harness

import (
	"reflect"
	"testing"

	"ctxback/internal/artifact"
)

// keyExcluded lists the Options fields keyInputs deliberately leaves
// out, each with the reason.
var keyExcluded = map[string]string{
	"Samples":     "matrixFor keys it itself; prepared workloads do not depend on it",
	"Parallelism": "the procs-diff gate proves results are independent of it",
	"Metrics":     "observability only; evalcheck pins its zero-overhead contract",
	"Logf":        "observability only; evalcheck pins its zero-overhead contract",
}

// TestKeyInputsCoverage is the memoization-key audit: every Options
// field that can change a measured result must move the artifact key.
// A field missing here (or in keyInputs) would let two different runs
// collide on one cached matrix — the bug class this pins shut. Every
// Options field (Cfg and Params expanded) must be either mutated below
// or listed in keyExcluded, so a new field cannot slip past the audit.
func TestKeyInputsCoverage(t *testing.T) {
	base := QuickOptions()
	hash := func(o Options) string {
		k := artifact.NewKey("audit")
		o.keyInputs(k)
		return k.Hash()
	}
	baseHash := hash(base)
	if hash(base) != baseHash {
		t.Fatal("keyInputs is not deterministic")
	}
	muts := []struct {
		name string
		mut  func(o *Options)
	}{
		{"Cfg.NumSMs", func(o *Options) { o.Cfg.NumSMs++ }},
		{"Cfg.MaxWarpsPerSM", func(o *Options) { o.Cfg.MaxWarpsPerSM++ }},
		{"Cfg.VRegFileBytes", func(o *Options) { o.Cfg.VRegFileBytes *= 2 }},
		{"Cfg.SRegFileBytes", func(o *Options) { o.Cfg.SRegFileBytes *= 2 }},
		{"Cfg.LDSBytesPerSM", func(o *Options) { o.Cfg.LDSBytesPerSM *= 2 }},
		{"Cfg.ClockGHz", func(o *Options) { o.Cfg.ClockGHz *= 2 }},
		{"Cfg.MemLatency", func(o *Options) { o.Cfg.MemLatency++ }},
		{"Cfg.MemBytesPerCycle", func(o *Options) { o.Cfg.MemBytesPerCycle *= 2 }},
		{"Cfg.CtxBytesPerCycle", func(o *Options) { o.Cfg.CtxBytesPerCycle *= 2 }},
		{"Cfg.CtxRestoreFactor", func(o *Options) { o.Cfg.CtxRestoreFactor *= 2 }},
		{"Cfg.LDSLatency", func(o *Options) { o.Cfg.LDSLatency++ }},
		{"Cfg.LDSBytesPerCycle", func(o *Options) { o.Cfg.LDSBytesPerCycle *= 2 }},
		{"Cfg.GlobalMemBytes", func(o *Options) { o.Cfg.GlobalMemBytes *= 2 }},
		{"Params.NumBlocks", func(o *Options) { o.Params.NumBlocks++ }},
		{"Params.WarpsPerBlock", func(o *Options) { o.Params.WarpsPerBlock++ }},
		{"Params.ItersPerWarp", func(o *Options) { o.Params.ItersPerWarp++ }},
		{"Params.Seed", func(o *Options) { o.Params.Seed++ }},
		{"Params.MemBase", func(o *Options) { o.Params.MemBase += 4096 }},
		{"FillDevice", func(o *Options) { o.FillDevice = !o.FillDevice }},
		{"Verify", func(o *Options) { o.Verify = !o.Verify }},
		{"MaxCycles", func(o *Options) { o.MaxCycles++ }},
	}
	mutated := map[string]bool{}
	for _, m := range muts {
		mutated[m.name] = true
	}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		names := []string{f.Name}
		if f.Name == "Cfg" || f.Name == "Params" {
			names = names[:0]
			for j := 0; j < f.Type.NumField(); j++ {
				names = append(names, f.Name+"."+f.Type.Field(j).Name)
			}
		}
		for _, n := range names {
			_, excluded := keyExcluded[n]
			if mutated[n] == excluded {
				t.Errorf("Options field %s must be either mutated by the audit or excluded from the key (mutated=%v excluded=%v)",
					n, mutated[n], excluded)
			}
		}
	}

	seen := map[string]string{baseHash: "base"}
	for _, m := range muts {
		o := base
		m.mut(&o)
		h := hash(o)
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s does not change the key (collides with %s)", m.name, prev)
		}
		seen[h] = m.name
	}
}
