package fault

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedInjectsNothing(t *testing.T) {
	in := New(1)
	for i := 0; i < 1000; i++ {
		if err := in.Inject("rpc.lease"); err != nil {
			t.Fatalf("disarmed injector failed: %v", err)
		}
	}
	if in.Hits("rpc.lease") != 0 {
		t.Fatal("disarmed injector counted hits")
	}
}

func TestCountRule(t *testing.T) {
	in := New(1)
	in.Arm(Rule{Site: "store.put-artifact", N: 3})
	var failed int
	for i := 0; i < 10; i++ {
		if err := in.Inject("store.put-artifact"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error does not wrap ErrInjected: %v", err)
			}
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("n=3 rule injected %d failures", failed)
	}
	if hits := in.Hits("store.put-artifact"); hits != 10 {
		t.Fatalf("hits = %d, want 10", hits)
	}
}

func TestProbabilityRuleIsDeterministic(t *testing.T) {
	seq := func(seed int64) []bool {
		in := New(seed)
		in.Arm(Rule{Site: "rpc.*", P: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Inject("rpc.lease") != nil
		}
		return out
	}
	a, b := seq(42), seq(42)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fails++
		}
	}
	// 200 draws at p=0.3: anything in [20, 100] is a sane realization;
	// the point is a nonzero, non-total failure rate.
	if fails < 20 || fails > 100 {
		t.Fatalf("p=0.3 injected %d/200 failures", fails)
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestPrefixMatchAndFirstRuleWins(t *testing.T) {
	in := New(1)
	in.Arm(Rule{Site: "rpc.lease", N: 1})
	in.Arm(Rule{Site: "rpc.*", P: 1})
	if err := in.Inject("rpc.lease"); err == nil {
		t.Fatal("exact rule (n=1) should fail the first hit")
	}
	if err := in.Inject("rpc.lease"); err != nil {
		t.Fatalf("exact rule exhausted, but hit still failed (prefix rule must not shadow): %v", err)
	}
	if err := in.Inject("rpc.result"); err == nil {
		t.Fatal("prefix rule p=1 should fail rpc.result")
	}
	if err := in.Inject("store.wal.append"); err != nil {
		t.Fatalf("unmatched site failed: %v", err)
	}
}

func TestConfigureSpec(t *testing.T) {
	in := New(1)
	if err := in.Configure("seed=7; rpc.lease:p=0.5 ; store.put-artifact:n=2,delay=1ms"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := in.Inject("store.put-artifact"); err == nil {
		t.Fatal("n=2 rule passed its first hit")
	}
	if time.Since(t0) < time.Millisecond {
		t.Fatal("delay=1ms did not sleep")
	}
	// Reconfiguring replaces everything.
	if err := in.Configure(""); err != nil {
		t.Fatal(err)
	}
	if err := in.Inject("store.put-artifact"); err != nil {
		t.Fatalf("reset injector still armed: %v", err)
	}

	for _, bad := range []string{
		"rpc.lease",            // no options
		"rpc.lease:p=2",        // probability out of range
		"rpc.lease:n=-1",       // negative count
		"rpc.lease:wat=1",      // unknown option
		"rpc.lease:p",          // malformed option
		":p=0.5",               // empty site
		"seed=x",               // malformed seed
		"rpc.lease:delay=-1ms", // negative delay
	} {
		if err := in.Configure(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestPureLatencyRule(t *testing.T) {
	in := New(1)
	in.Arm(Rule{Site: "rpc.fetch", Delay: 2 * time.Millisecond})
	t0 := time.Now()
	if err := in.Inject("rpc.fetch"); err != nil {
		t.Fatalf("latency-only rule failed the hit: %v", err)
	}
	if time.Since(t0) < 2*time.Millisecond {
		t.Fatal("latency rule did not delay")
	}
}
