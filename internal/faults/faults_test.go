package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

var (
	testSiteA = Register("faults.test/a")
	testSiteB = Register("faults.test/b")
)

// TestInertWithoutPlan pins the production contract: with no plan active
// every helper is a no-op.
func TestInertWithoutPlan(t *testing.T) {
	if active.Load() != nil {
		t.Fatal("plan active at test start")
	}
	if err := Error(testSiteA); err != nil {
		t.Fatalf("inert Error = %v", err)
	}
	data := []byte{1, 2, 3}
	if got := Corrupt(testSiteA, data); &got[0] != &data[0] {
		t.Fatal("inert Corrupt copied the payload")
	}
	Sleep(context.Background(), testSiteA)
	Crash(testSiteA) // must not panic
}

func TestUnregisteredSiteRejected(t *testing.T) {
	if _, err := NewPlan(1, Rule{Site: "faults.test/nope", Kind: KindError}); err == nil {
		t.Fatal("plan accepted a rule for an unregistered site")
	}
	if _, err := NewPlan(1, Rule{Site: testSiteA, Kind: KindError, Prob: 1.5}); err == nil {
		t.Fatal("plan accepted probability 1.5")
	}
}

// TestDeterministicSchedule: the same seed yields the same injection
// decisions at a site, visit for visit; a different seed yields a
// different schedule.
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []bool {
		plan := MustPlan(seed, Rule{Site: testSiteA, Kind: KindError, Prob: 0.5})
		defer Activate(plan)()
		out := make([]bool, 64)
		for i := range out {
			out[i] = Error(testSiteA) != nil
		}
		return out
	}
	a1, a2, b := schedule(7), schedule(7), schedule(8)
	hits := 0
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("visit %d differs across identical seeds", i)
		}
		if a1[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a1) {
		t.Fatalf("prob 0.5 schedule fired %d/%d times", hits, len(a1))
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

// TestSiteIndependence: site B's decisions do not shift when site A is
// visited in between (per-site RNGs).
func TestSiteIndependence(t *testing.T) {
	run := func(interleave bool) []bool {
		plan := MustPlan(3,
			Rule{Site: testSiteA, Kind: KindError, Prob: 0.5},
			Rule{Site: testSiteB, Kind: KindError, Prob: 0.5})
		defer Activate(plan)()
		out := make([]bool, 32)
		for i := range out {
			if interleave {
				Error(testSiteA)
			}
			out[i] = Error(testSiteB) != nil
		}
		return out
	}
	plain, interleaved := run(false), run(true)
	for i := range plain {
		if plain[i] != interleaved[i] {
			t.Fatalf("site B visit %d changed because site A was visited", i)
		}
	}
}

func TestEveryAfterCount(t *testing.T) {
	plan := MustPlan(1, Rule{Site: testSiteA, Kind: KindError, Every: 3, After: 2, Count: 2})
	defer Activate(plan)()
	var fired []int
	for visit := 1; visit <= 12; visit++ {
		if Error(testSiteA) != nil {
			fired = append(fired, visit)
		}
	}
	// After 2 skips visits 1-2; Every 3 arms visits 3, 6, 9, ...; Count 2
	// stops after two injections.
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Fatalf("fired at visits %v, want [3 6]", fired)
	}
	if got := plan.Fired(testSiteA, KindError); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestInjectedErrorShape(t *testing.T) {
	plan := MustPlan(1, Rule{Site: testSiteA, Kind: KindError})
	defer Activate(plan)()
	err := Error(testSiteA)
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Site != testSiteA {
		t.Fatalf("error = %#v", err)
	}
}

// TestCorruptFlipsBytesDeterministically: corruption returns a fresh,
// different buffer; the original is untouched; the flips are seed-stable.
func TestCorruptFlipsBytesDeterministically(t *testing.T) {
	orig := []byte(strings.Repeat("anchor", 16))
	mangle := func(seed int64) []byte {
		plan := MustPlan(seed, Rule{Site: testSiteA, Kind: KindCorrupt})
		defer Activate(plan)()
		return Corrupt(testSiteA, orig)
	}
	a, b := mangle(5), mangle(5)
	if &a[0] == &orig[0] {
		t.Fatal("Corrupt mutated the caller's buffer")
	}
	if string(orig) != strings.Repeat("anchor", 16) {
		t.Fatal("original buffer changed")
	}
	if string(a) == string(orig) {
		t.Fatal("armed Corrupt returned identical bytes")
	}
	if string(a) != string(b) {
		t.Fatal("same seed corrupted differently")
	}
}

func TestSleepHonorsContext(t *testing.T) {
	plan := MustPlan(1, Rule{Site: testSiteA, Kind: KindLatency, Latency: time.Hour})
	defer Activate(plan)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Sleep(ctx, testSiteA)
	if time.Since(start) > time.Second {
		t.Fatal("Sleep ignored the canceled context")
	}
}

func TestCrashPanics(t *testing.T) {
	plan := MustPlan(1, Rule{Site: testSiteA, Kind: KindPanic})
	defer Activate(plan)()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Crash did not panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, testSiteA) {
			t.Fatalf("panic value %v does not name the site", v)
		}
	}()
	Crash(testSiteA)
}

// TestEventsRecordFirings: the event log records each firing under its
// site and kind.
func TestEventsRecordFirings(t *testing.T) {
	plan := MustPlan(1,
		Rule{Site: testSiteA, Kind: KindError, Every: 2})
	defer Activate(plan)()
	for i := 0; i < 4; i++ {
		Error(testSiteA)
	}
	if got := plan.Fired(testSiteA, KindError); got != 2 {
		t.Fatalf("Fired(%s, error) = %d, want 2", testSiteA, got)
	}
	if plan.Fired(testSiteA, KindLatency) != 0 || plan.Fired(testSiteB, KindError) != 0 {
		t.Fatal("firings recorded under the wrong site or kind")
	}
}

func TestSitesSorted(t *testing.T) {
	sites := Sites()
	found := 0
	for i, s := range sites {
		if i > 0 && sites[i-1] > s {
			t.Fatalf("sites not sorted: %v", sites)
		}
		if s == testSiteA || s == testSiteB {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("registered test sites missing from %v", sites)
	}
}
