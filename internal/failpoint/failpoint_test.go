package failpoint

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	DisableAll()
	if err := Inject("nonexistent/site"); err != nil {
		t.Fatalf("disarmed Inject = %v, want nil", err)
	}
	if got := Partial("nonexistent/site", 100); got != 100 {
		t.Fatalf("disarmed Partial = %d, want 100", got)
	}
}

func TestErrorSpec(t *testing.T) {
	DisableAll()
	if err := Enable("t/error", "error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	defer DisableAll()
	err := Inject("t/error")
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("Inject = %v, want *Error", err)
	}
	if fe.Name != "t/error" || fe.Msg != "disk gone" {
		t.Fatalf("Error = %+v", fe)
	}
	if Hits("t/error") != 1 {
		t.Fatalf("Hits = %d, want 1", Hits("t/error"))
	}
}

func TestCountDisarmsAfterExhaustion(t *testing.T) {
	DisableAll()
	if err := Enable("t/count", "2*error(boom)"); err != nil {
		t.Fatal(err)
	}
	defer DisableAll()
	for i := 0; i < 2; i++ {
		if err := Inject("t/count"); err == nil {
			t.Fatalf("eval %d: want injected error", i)
		}
	}
	if err := Inject("t/count"); err != nil {
		t.Fatalf("after exhaustion: %v, want nil", err)
	}
	if infos := List(); len(infos) != 0 {
		t.Fatalf("exhausted site still listed: %+v", infos)
	}
}

func TestPercentRotation(t *testing.T) {
	DisableAll()
	if err := Enable("t/pct", "25%error(x)"); err != nil {
		t.Fatal(err)
	}
	defer DisableAll()
	fired := 0
	for i := 0; i < 100; i++ {
		if Inject("t/pct") != nil {
			fired++
		}
	}
	if fired != 25 {
		t.Fatalf("25%% over 100 evals fired %d times, want exactly 25 (deterministic rotation)", fired)
	}
}

func TestSleepHonorsContext(t *testing.T) {
	DisableAll()
	if err := Enable("t/sleep", "sleep(10s)"); err != nil {
		t.Fatal(err)
	}
	defer DisableAll()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := InjectCtx(ctx, "t/sleep")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("InjectCtx = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("sleep ignored the context")
	}
}

func TestSleepThenError(t *testing.T) {
	DisableAll()
	if err := Enable("t/se", "sleep(1ms)->error(late fail)"); err != nil {
		t.Fatal(err)
	}
	defer DisableAll()
	err := Inject("t/se")
	var fe *Error
	if !errors.As(err, &fe) || fe.Msg != "late fail" {
		t.Fatalf("Inject = %v, want injected 'late fail'", err)
	}
}

func TestDrop(t *testing.T) {
	DisableAll()
	if err := Enable("t/drop", "drop"); err != nil {
		t.Fatal(err)
	}
	defer DisableAll()
	if err := Inject("t/drop"); !errors.Is(err, ErrDrop) {
		t.Fatalf("Inject = %v, want ErrDrop", err)
	}
}

func TestPartial(t *testing.T) {
	DisableAll()
	if err := Enable("t/partial", "partial(0.5)"); err != nil {
		t.Fatal(err)
	}
	defer DisableAll()
	if got := Partial("t/partial", 100); got != 50 {
		t.Fatalf("Partial = %d, want 50", got)
	}
	// a partial term never makes Inject fail
	if err := Inject("t/partial"); err != nil {
		t.Fatalf("Inject on partial site = %v, want nil", err)
	}
}

func TestOffAndClear(t *testing.T) {
	DisableAll()
	if err := Enable("t/a", "error(x)"); err != nil {
		t.Fatal(err)
	}
	if err := Enable("t/a", "off"); err != nil {
		t.Fatal(err)
	}
	if err := Inject("t/a"); err != nil {
		t.Fatalf("after off: %v, want nil", err)
	}
	if err := Enable("t/a", "error(x)"); err != nil {
		t.Fatal(err)
	}
	if err := Enable("t/b", "drop"); err != nil {
		t.Fatal(err)
	}
	DisableAll()
	if len(List()) != 0 {
		t.Fatal("DisableAll left armed sites")
	}
	if err := Inject("t/a"); err != nil {
		t.Fatalf("after DisableAll: %v, want nil", err)
	}
}

func TestBadSpecs(t *testing.T) {
	DisableAll()
	for _, spec := range []string{
		"explode", "0*error(x)", "-3*drop", "101%drop", "0%drop",
		"sleep(notadur)", "partial(1.5)", "partial(-0.1)",
		"sleep(1s", "3*sleep(1ms", "sleep(1ms)->error(x", "error(x", "partial(0.5",
		"partial(NaN)",
	} {
		if err := Enable("t/bad", spec); err == nil {
			Disable("t/bad")
			t.Errorf("Enable(%q) accepted a bad spec", spec)
		}
	}
}

func TestEnableFromEnv(t *testing.T) {
	DisableAll()
	defer DisableAll()
	t.Setenv(EnvVar, "t/env1=error(a); t/env2=3*drop")
	names, err := EnableFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("armed %v, want 2 sites", names)
	}
	if err := Inject("t/env1"); err == nil {
		t.Fatal("t/env1 not armed")
	}
	if err := Inject("t/env2"); !errors.Is(err, ErrDrop) {
		t.Fatalf("t/env2 = %v, want ErrDrop", err)
	}

	DisableAll()
	t.Setenv(EnvVar, "malformed-entry-without-equals")
	if _, err := EnableFromEnv(); err == nil {
		t.Fatal("malformed env accepted")
	}
}

// FuzzFailpointSpec holds parseSpec to the grammar: it never panics, and
// every spec it accepts is "drop" or a term closed by ")", with a
// non-negative sleep, a partial fraction in [0,1), a positive count and a
// percentage in [1,100].
func FuzzFailpointSpec(f *testing.F) {
	for _, spec := range []string{
		// TestBadSpecs' inputs
		"explode", "0*error(x)", "-3*drop", "101%drop", "0%drop",
		"sleep(notadur)", "partial(1.5)", "partial(-0.1)",
		"sleep(1s", "3*sleep(1ms", "sleep(1ms)->error(x", "error(x", "partial(0.5",
		"partial(NaN)",
		// the package comment's examples
		"error(injected)", "3*sleep(50ms)", "sleep(10ms)->error(late)", "drop",
		"partial(0.5)", "50%drop", "100%error(x)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := parseSpec("t/fuzz", spec)
		if err != nil {
			return
		}
		term := strings.TrimSpace(spec)
		if p.kind != kindDrop && !strings.HasSuffix(term, ")") {
			t.Fatalf("accepted %q, a %v term not closed by \")\"", spec, p.kind)
		}
		if p.sleep < 0 {
			t.Fatalf("accepted %q with sleep %v", spec, p.sleep)
		}
		if !(p.fraction >= 0 && p.fraction < 1) {
			t.Fatalf("accepted %q with fraction %v", spec, p.fraction)
		}
		if p.remaining == 0 || p.remaining < -1 {
			t.Fatalf("accepted %q with count %d", spec, p.remaining)
		}
		if p.pct != 0 && (p.pct < 1 || p.pct > 100) {
			t.Fatalf("accepted %q with pct %d", spec, p.pct)
		}
	})
}
