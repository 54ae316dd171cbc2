package core

import (
	"testing"

	"easydram/internal/smc"
	"easydram/internal/workload"
)

// nextOnly hides a stream's concrete type, so workload.Window hands the
// core one op per Next call instead of the stream's slab.
type nextOnly struct{ workload.Stream }

// TestStreamWindowDigestsMatchNext runs every Tiny validation kernel on the
// time-scaled and reference engines twice: the core taking ops in place
// from the kernel stream's slabs, and one op per Next through a wrapper.
// The digests must be equal.
func TestStreamWindowDigestsMatchNext(t *testing.T) {
	kernels := workload.ValidationSuite(workload.Tiny)
	cfgs := []Config{TimeScaling1GHz(), Reference1GHz()}
	names := []string{"ts-1ghz", "ref-1ghz"}
	errs := make([]string, len(kernels)*len(cfgs))
	forEachParallel(len(errs), func(i int) {
		k, cfg := kernels[i/len(cfgs)], cfgs[i%len(cfgs)]
		var digests [2]string
		for j, s := range []workload.Stream{k.Stream(), nextOnly{k.Stream()}} {
			sys, err := NewSystem(cfg)
			if err == nil {
				var res Result
				res, err = sys.Run(s)
				digests[j] = res.Digest()
			}
			if err != nil {
				errs[i] = k.Name + " on " + names[i%len(cfgs)] + ": " + err.Error()
				return
			}
		}
		if digests[0] != digests[1] {
			errs[i] = k.Name + " on " + names[i%len(cfgs)] + ": window digest " + digests[0] + ", Next digest " + digests[1]
		}
	})
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}

// TestMultiCoreStreamWindowDigestMatchesNext runs the 4-core "mixed" mix
// (cores 1-3 relocated by OffsetStream) under BLISS with its streams as
// built and wrapped to hand out one op per Next: equal digests.
func TestMultiCoreStreamWindowDigestMatchesNext(t *testing.T) {
	mix, err := workload.MixByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	run := func(strms []workload.Stream) string {
		cfg := TimeScalingA57()
		cfg.Cores = 4
		cfg.Scheduler = smc.NewBLISS()
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunStreams(strms)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest()
	}
	wrapped := mix.Streams(4)
	for i, s := range wrapped {
		wrapped[i] = nextOnly{s}
	}
	if a, b := run(mix.Streams(4)), run(wrapped); a != b {
		t.Fatalf("window digest %s, Next digest %s", a, b)
	}
}

// TestUnknownOpKindFailsRun feeds ops of kinds no emitter produces (0 and
// 99) to both single-core engines and the multi-core merge loop: each run
// must fail with an error naming the core and the kind, after a load and
// a compute op have run.
func TestUnknownOpKindFailsRun(t *testing.T) {
	for _, kind := range []workload.OpKind{0, 99} {
		ops := func() []workload.Op {
			return []workload.Op{
				{Kind: workload.OpLoad, Addr: 1 << 20},
				{Kind: workload.OpCompute, N: 10},
				{Kind: kind, Addr: 1 << 21},
				{Kind: workload.OpLoad, Addr: 1 << 22},
			}
		}
		two := TimeScalingA57()
		two.Cores = 2
		for _, tc := range []struct {
			name  string
			cfg   Config
			cores int
			want  string
		}{
			{"scaled", TimeScalingA57(), 1, "core: cpu cortex-a57: unknown op kind " + kind.String()},
			{"unscaled", NoTimeScaling(), 1, "core: cpu rocket-50mhz: unknown op kind " + kind.String()},
			{"2-core", two, 2, "core: core 1: cpu cortex-a57: unknown op kind " + kind.String()},
		} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				sys, err := NewSystem(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				strms := []workload.Stream{streamOf(ops())}
				if tc.cores == 2 {
					// Core 0 runs clean; core 1 meets the bad op.
					strms = []workload.Stream{streamOf(ops()[:2]), streamOf(ops())}
				}
				_, err = sys.RunStreams(strms)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
			})
		}
	}
}
