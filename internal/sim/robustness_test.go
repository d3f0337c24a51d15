package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gridvo/internal/adversary"
	"gridvo/internal/fault"
)

func robustConfig(seed uint64) Config {
	cfg := QuickConfig(seed)
	cfg.ProgramSizes = []int{32, 64}
	cfg.Repetitions = 2
	cfg.NumGSPs = 10
	cfg.TrustEdgeProb = 0.3
	cfg.TraceJobs = 1500
	cfg.Solver.NodeBudget = 100_000
	return cfg
}

// TestRobustnessZeroAttackerBitwiseIdentity pins the acceptance criterion:
// a zero-Size adversarial scenario must be bitwise identical to the honest
// baseline — selections, reputation vectors, and fingerprints all fold
// into the two sums, so equality here is equality of all of them.
func TestRobustnessZeroAttackerBitwiseIdentity(t *testing.T) {
	for _, class := range adversary.Classes {
		opts := RobustnessOptions{Attack: &adversary.Spec{Class: class, Rate: 0.5}}
		rep, err := RobustnessSweep(context.Background(), robustConfig(7), opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if rep.HonestFingerprint != rep.AdversarialFingerprint {
			t.Fatalf("%s: zero-attacker fingerprints differ: honest=%016x adversarial=%016x",
				class, rep.HonestFingerprint, rep.AdversarialFingerprint)
		}
		for _, c := range rep.Cells {
			if c.ValueDelta != 0 || c.Infiltration != 0 || c.Displacement != 0 {
				t.Fatalf("%s: zero-attacker cell degraded: %+v", class, c)
			}
		}
	}
	// Same with no transform at all.
	rep, err := RobustnessSweep(context.Background(), robustConfig(7), RobustnessOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != "none" || rep.HonestFingerprint != rep.AdversarialFingerprint {
		t.Fatalf("empty transform: class=%q honest=%016x adversarial=%016x",
			rep.Class, rep.HonestFingerprint, rep.AdversarialFingerprint)
	}
}

// TestRobustnessSweepDeterministic: identical seeds reproduce the sweep
// bit for bit, and a real attack moves the adversarial fingerprint away
// from the honest one.
func TestRobustnessSweepDeterministic(t *testing.T) {
	opts := RobustnessOptions{
		Attack: &adversary.Spec{Class: adversary.ClassSybil, Size: 4},
		Churn:  &adversary.ChurnSpec{LeaveRate: 0.2, JoinRate: 0.1},
	}
	r1, err := RobustnessSweep(context.Background(), robustConfig(3), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RobustnessSweep(context.Background(), robustConfig(3), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.HonestFingerprint != r2.HonestFingerprint || r1.AdversarialFingerprint != r2.AdversarialFingerprint {
		t.Fatalf("sweep not reproducible: %016x/%016x vs %016x/%016x",
			r1.HonestFingerprint, r1.AdversarialFingerprint, r2.HonestFingerprint, r2.AdversarialFingerprint)
	}
	if !reflect.DeepEqual(r1.Cells, r2.Cells) {
		t.Fatalf("cells differ between identical sweeps")
	}
	if r1.HonestFingerprint == r1.AdversarialFingerprint {
		t.Fatalf("sybil ring of 4 left the run bitwise unchanged")
	}
	if r1.Class != "sybil+churn" {
		t.Fatalf("class = %q, want sybil+churn", r1.Class)
	}
}

// TestRobustnessChurnReformsWarm: churn triggers mid-formation membership
// changes and the re-formed rounds still go through the warm-start path.
func TestRobustnessChurnReformsWarm(t *testing.T) {
	opts := RobustnessOptions{Churn: &adversary.ChurnSpec{LeaveRate: 0.35, JoinRate: 0.3}}
	rep, err := RobustnessSweep(context.Background(), robustConfig(5), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reformations == 0 {
		t.Fatalf("leave rate 0.35 produced no re-formations")
	}
	if rep.ChurnJoins+rep.ChurnLeaves == 0 {
		t.Fatalf("re-formations with no membership moves: %+v", rep)
	}
	if rep.WarmStarts == 0 {
		t.Fatalf("re-formation rounds never warm-started an IP solve")
	}
}

// TestRobustnessMonotoneDegradation pins, at fixed seeds, that each attack
// class's degradation metric is monotone non-decreasing in attack strength
// and strictly positive at the top of the ladder — the BENCH_PR9 claim in
// test form. Everything is deterministic, so this is a golden property:
// each rung's honest and adversarial fingerprints must also equal the ones
// BENCH_PR9.json recorded for the same seed, sizes and ladders.
func TestRobustnessMonotoneDegradation(t *testing.T) {
	// honest is every rung's honest-world fingerprint: the attack
	// transforms only the adversarial world.
	const honest = "e36f96ae7faea923"
	type rung struct {
		opts        RobustnessOptions
		adversarial string // expected adversarial fingerprint
	}
	ladders := []struct {
		name  string
		rungs []rung
	}{
		{"collusion", []rung{
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassCollusion, Size: 0}}, honest},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassCollusion, Size: 3}}, "03041f6aff73923e"},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassCollusion, Size: 6}}, "ab36d0aed734f0a3"},
		}},
		{"sybil", []rung{
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassSybil, Size: 0}}, honest},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassSybil, Size: 3}}, "eeff51a1e6524a97"},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassSybil, Size: 6}}, "9fbe8dc187570f20"},
		}},
		{"whitewash", []rung{
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassWhitewash, Size: 0}}, honest},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassWhitewash, Size: 3}}, "f9404eb8073e6b81"},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassWhitewash, Size: 6}}, "74a73a210711fb9e"},
		}},
		{"slander", []rung{
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassSlander, Size: 4, Rate: 0}}, honest},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassSlander, Size: 4, Rate: 0.3}}, "75d3085e87407f62"},
			{RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassSlander, Size: 4, Rate: 0.8}}, "ac99065cf54f16f8"},
		}},
		{"churn", []rung{
			{RobustnessOptions{Churn: &adversary.ChurnSpec{LeaveRate: 0, JoinRate: 0.1}}, honest},
			{RobustnessOptions{Churn: &adversary.ChurnSpec{LeaveRate: 0.2, JoinRate: 0.1}}, "5ac7e5b02f8e8f23"},
			{RobustnessOptions{Churn: &adversary.ChurnSpec{LeaveRate: 0.35, JoinRate: 0.1}}, "e1ea53eed09f1495"},
		}},
	}
	for _, lad := range ladders {
		lad := lad
		t.Run(lad.name, func(t *testing.T) {
			prev := -1.0
			var last float64
			for i, r := range lad.rungs {
				rep, err := RobustnessSweep(context.Background(), robustConfig(9), r.opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%016x", rep.HonestFingerprint); got != honest {
					t.Errorf("rung %d: honest fingerprint %s, BENCH_PR9 has %s", i, got, honest)
				}
				if got := fmt.Sprintf("%016x", rep.AdversarialFingerprint); got != r.adversarial {
					t.Errorf("rung %d: adversarial fingerprint %s, BENCH_PR9 has %s", i, got, r.adversarial)
				}
				// Per-class metric: attacks that smuggle bad identities
				// into the VO (collusion cliques, sybil twins, whitewashed
				// re-entries) are measured by infiltration; attacks that
				// push honest members out (slander, churn) by displacement.
				m := rep.MeanDisplacement
				if !r.opts.Attack.IsZero() && r.opts.Attack.Class != adversary.ClassSlander {
					m = rep.MeanInfiltration
				}
				if m < prev {
					t.Fatalf("rung %d: metric %v < previous %v — degradation not monotone", i, m, prev)
				}
				prev, last = m, m
			}
			if last <= 0 {
				t.Fatalf("strongest attack shows no degradation (metric %v)", last)
			}
		})
	}
}

// TestChaosComposesWithAdversary is the satellite regression: fault
// injection on an adversarially generated grid must stay bit-reproducible,
// and the adversary must actually reach the chaos path (fingerprint moves
// versus the honest sweep).
func TestChaosComposesWithAdversary(t *testing.T) {
	fcfg := fault.Config{Seed: 11, Rate: 0.3, CancelNodes: 8}
	cfg := robustConfig(5)
	honest, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = &adversary.Spec{Class: adversary.ClassCollusion, Size: 4}
	cfg.Churn = &adversary.ChurnSpec{LeaveRate: 0.2, JoinRate: 0.1}
	a1, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Fingerprint != a2.Fingerprint {
		t.Fatalf("adversarial chaos sweep not reproducible: %016x vs %016x", a1.Fingerprint, a2.Fingerprint)
	}
	if a1.Fingerprint == honest.Fingerprint {
		t.Fatalf("collusion clique never reached the chaos pipeline (fingerprint unchanged)")
	}
	for _, v := range a1.Violations {
		t.Errorf("invariant violation under adversary: %s", v)
	}
	// Zero-strength adversary: bitwise identical to the honest sweep.
	cfg.Adversary = &adversary.Spec{Class: adversary.ClassCollusion, Size: 0}
	cfg.Churn = nil
	z, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if z.Fingerprint != honest.Fingerprint {
		t.Fatalf("zero-strength adversary changed the chaos fingerprint: %016x vs %016x",
			z.Fingerprint, honest.Fingerprint)
	}
}
