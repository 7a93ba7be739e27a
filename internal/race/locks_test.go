package race_test

import (
	"strings"
	"testing"
)

// TestMutexSuppressesRace: two threads increment the same global, both
// under the same global mutex — no race may be reported.
func TestMutexSuppressesRace(t *testing.T) {
	src := `
int x;
mutex m;
int main() {
  par {
    { lock(m); x = x + 1; unlock(m); }
    { lock(m); x = x + 2; unlock(m); }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) != 0 {
		t.Errorf("accesses under a common mutex must not race; got %v", raceStrings(races))
	}
}

// TestMutexOnlyOneSideStillRaces: a mutex held by only one of the two
// threads excludes nothing.
func TestMutexOnlyOneSideStillRaces(t *testing.T) {
	src := `
int x;
mutex m;
int main() {
  par {
    { lock(m); x = x + 1; unlock(m); }
    { x = x + 2; }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("a mutex held on one side only must not suppress the race")
	}
}

// TestDifferentMutexesStillRace: each thread holds its own mutex — the
// accesses are not mutually exclusive.
func TestDifferentMutexesStillRace(t *testing.T) {
	src := `
int x;
mutex m1, m2;
int main() {
  par {
    { lock(m1); x = x + 1; unlock(m1); }
    { lock(m2); x = x + 2; unlock(m2); }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("different mutexes must not suppress the race")
	}
}

// TestMutexAfterUnlockRaces: the access outside the lock region is
// unprotected.
func TestMutexAfterUnlockRaces(t *testing.T) {
	src := `
int x;
mutex m;
int main() {
  par {
    { lock(m); unlock(m); x = x + 1; }
    { lock(m); x = x + 2; unlock(m); }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("an access after unlock is unprotected and must race")
	}
}

// TestMutexInCalleeSuppresses: the lock region lives inside a called
// procedure; its accesses are protected there.
func TestMutexInCalleeSuppresses(t *testing.T) {
	src := `
int x;
mutex m;
void inc() { lock(m); x = x + 1; unlock(m); }
int main() {
  par {
    { inc(); }
    { inc(); }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) != 0 {
		t.Errorf("callee lock regions must suppress; got %v", raceStrings(races))
	}
}

// TestCallMayUnlockForfeitsProtection: a call whose callee unlocks the
// mutex invalidates the caller's must-hold set.
func TestCallMayUnlockForfeitsProtection(t *testing.T) {
	src := `
int x;
mutex m;
void drop() { unlock(m); }
int main() {
  par {
    { lock(m); drop(); x = x + 1; }
    { lock(m); x = x + 2; unlock(m); }
  }
  return 0;
}
`
	_, races := detect(t, src)
	if len(races) == 0 {
		t.Error("a callee that may unlock forfeits the caller's protection")
	}
}

// TestParforMutexSuppresses: iterations of a parallel loop serialising on
// one mutex do not race.
func TestParforMutexSuppresses(t *testing.T) {
	src := `
int x;
mutex m;
int main() {
  int i;
  parfor (i = 0; i < 10; i = i + 1) {
    lock(m);
    x = x + 1;
    unlock(m);
  }
  return 0;
}
`
	_, races := detect(t, src)
	// The loop-control accesses on i still race (the header replicates with
	// the body); the protected body access on line 8 must not.
	for _, r := range races {
		if strings.Contains(r.String(), "race.clk:8") {
			t.Errorf("the body access under the mutex must not race: %v", r)
		}
	}
}

// TestDetachedThreadRacesWithDownstream: a join-less thread races with
// the code after its creating region.
func TestDetachedThreadRacesWithDownstream(t *testing.T) {
	src := `
int x;
void bump() { x = x + 1; }
int main() {
  thread_create(bump);
  x = 7;
  return 0;
}
`
	_, races := detect(t, src)
	// The create group places x = 7 in the region's continuation thread,
	// so the conflict surfaces as an ordinary region pair; a detached
	// create with no continuation surfaces as a thread_create pair. Either
	// way, the bump-vs-main conflict on x must be reported.
	found := false
	for _, r := range races {
		s := r.String()
		if strings.Contains(s, "race.clk:3") && strings.Contains(s, "race.clk:6") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a detached-vs-downstream race on x; got %v", raceStrings(races))
	}
}

// TestDetachedDownstreamMutexSuppresses: both the detached thread and the
// downstream code lock the same mutex around the access.
func TestDetachedDownstreamMutexSuppresses(t *testing.T) {
	src := `
int x;
mutex m;
void bump() { lock(m); x = x + 1; unlock(m); }
int main() {
  thread_create(bump);
  lock(m);
  x = 7;
  unlock(m);
  return 0;
}
`
	_, races := detect(t, src)
	for _, r := range races {
		if strings.Contains(r.String(), "thread_create") {
			t.Errorf("common mutex must suppress the detached race: %v", r)
		}
	}
}
