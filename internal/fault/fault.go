package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected failure, so
// tests can tell a synthetic error from a real one with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Rule arms one injection site (or a "prefix.*" family of sites). Zero
// P and N with a non-zero Delay makes a pure latency rule.
type Rule struct {
	// Site matches an injection point exactly, or every point under a
	// prefix when it ends in ".*" (e.g. "rpc.*").
	Site string
	// P is the per-hit failure probability in [0, 1], drawn from the
	// injector's deterministic PRNG.
	P float64
	// N fails the first N hits of the site unconditionally, then passes.
	N int
	// Delay is slept on every hit before the pass/fail decision.
	Delay time.Duration
}

func (r Rule) matches(site string) bool {
	if p, ok := strings.CutSuffix(r.Site, "*"); ok {
		return strings.HasPrefix(site, p)
	}
	return r.Site == site
}

// Injector is one armed set of rules. The zero value is valid and
// disarmed; every Inject on it is a single atomic load.
type Injector struct {
	armed atomic.Bool

	mu    sync.Mutex
	rules []Rule
	rng   *rand.Rand
	hits  map[string]int
}

// New returns an injector whose probabilistic rules draw from a PRNG
// seeded with seed — the same spec and seed reproduce the same failure
// sequence.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Arm adds one rule and enables the injector.
func (in *Injector) Arm(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, r)
	in.armed.Store(true)
}

// Reset disarms the injector and clears its rules and counters.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed.Store(false)
	in.rules = nil
	in.hits = nil
}

// Seed replaces the injector's PRNG (Configure's seed= option).
func (in *Injector) Seed(seed int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rng = rand.New(rand.NewSource(seed))
}

// Inject is called by production code at a named seam: it returns nil
// when the site passes and a synthetic error (wrapping ErrInjected) when
// an armed rule decides the hit fails. Disarmed injectors decide in one
// atomic load with no allocation.
func (in *Injector) Inject(site string) error {
	if !in.armed.Load() {
		return nil
	}
	in.mu.Lock()
	var rule *Rule
	for i := range in.rules {
		if in.rules[i].matches(site) {
			rule = &in.rules[i]
			break
		}
	}
	if rule == nil {
		in.mu.Unlock()
		return nil
	}
	if in.hits == nil {
		in.hits = make(map[string]int)
	}
	in.hits[site]++
	hit := in.hits[site]
	fail := false
	if rule.N > 0 {
		rule.N--
		fail = true
	} else if rule.P > 0 {
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(1))
		}
		fail = in.rng.Float64() < rule.P
	}
	delay := rule.Delay
	in.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return fmt.Errorf("%w at %s (hit %d)", ErrInjected, site, hit)
	}
	return nil
}

// Hits returns how often the site was consulted while armed.
func (in *Injector) Hits(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Configure resets the injector and arms it from a spec string (see the
// package documentation): semicolon-separated "site:opts" clauses with
// comma-separated options p=, n=, delay=, plus a global seed= clause.
// An empty spec just resets. Unknown options or malformed values are
// errors — a chaos run with a typoed spec must fail loudly, not run
// fault-free.
func (in *Injector) Configure(spec string) error {
	in.Reset()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("fault: seed %q: %v", v, err)
			}
			in.Seed(seed)
			continue
		}
		site, opts, ok := strings.Cut(clause, ":")
		if !ok || site == "" {
			return fmt.Errorf("fault: clause %q: want site:opts", clause)
		}
		r := Rule{Site: site}
		for _, opt := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return fmt.Errorf("fault: option %q in clause %q: want key=value", opt, clause)
			}
			var err error
			switch k {
			case "p":
				r.P, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.P < 0 || r.P > 1) {
					err = fmt.Errorf("probability out of [0, 1]")
				}
			case "n":
				r.N, err = strconv.Atoi(v)
				if err == nil && r.N < 0 {
					err = fmt.Errorf("negative count")
				}
			case "delay":
				r.Delay, err = time.ParseDuration(v)
				if err == nil && r.Delay < 0 {
					err = fmt.Errorf("negative delay")
				}
			default:
				err = fmt.Errorf("unknown option")
			}
			if err != nil {
				return fmt.Errorf("fault: option %q in clause %q: %v", opt, clause, err)
			}
		}
		if r.P == 0 && r.N == 0 && r.Delay == 0 {
			return fmt.Errorf("fault: clause %q arms nothing (want p=, n= or delay=)", clause)
		}
		in.Arm(r)
	}
	return nil
}

// Default is the process-wide injector the production seams consult via
// the package-level Inject; the -fault flags on bpserve and bpworker
// configure it.
var Default = New(1)

// Inject consults the Default injector.
func Inject(site string) error { return Default.Inject(site) }

// Configure arms the Default injector from a spec string.
func Configure(spec string) error { return Default.Configure(spec) }

// Reset disarms the Default injector (tests that configure it must
// clean up after themselves).
func Reset() { Default.Reset() }
