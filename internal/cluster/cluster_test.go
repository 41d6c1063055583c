package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestStridedAssignment(t *testing.T) {
	a := Strided(10, 3)
	if len(a) != 3 {
		t.Fatalf("nodes = %d", len(a))
	}
	want := Assignment{{0, 3, 6, 9}, {1, 4, 7}, {2, 5, 8}}
	for n := range want {
		if len(a[n]) != len(want[n]) {
			t.Fatalf("node %d: %v", n, a[n])
		}
		for i := range want[n] {
			if a[n][i] != want[n][i] {
				t.Fatalf("node %d: %v, want %v", n, a[n], want[n])
			}
		}
	}
}

func TestBlockedAssignment(t *testing.T) {
	a := Blocked(10, 3)
	want := Assignment{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for n := range want {
		for i := range want[n] {
			if a[n][i] != want[n][i] {
				t.Fatalf("node %d: %v, want %v", n, a[n], want[n])
			}
		}
	}
}

// Property: every assignment covers each task exactly once.
func TestAssignmentsPartitionProperty(t *testing.T) {
	f := func(nTasksRaw, nodesRaw uint8) bool {
		nTasks := int(nTasksRaw % 64)
		nodes := int(nodesRaw%16) + 1
		for _, a := range []Assignment{Strided(nTasks, nodes), Blocked(nTasks, nodes)} {
			seen := map[int]int{}
			for _, node := range a {
				for _, idx := range node {
					seen[idx]++
				}
			}
			if len(seen) != nTasks {
				return false
			}
			for i := 0; i < nTasks; i++ {
				if seen[i] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentZeroNodes(t *testing.T) {
	if a := Strided(5, 0); len(a) != 1 || len(a[0]) != 5 {
		t.Fatalf("Strided(5,0) = %v", a)
	}
	if a := Blocked(5, -1); len(a) != 1 {
		t.Fatalf("Blocked(5,-1) = %v", a)
	}
}

func makeTasks(n int, d time.Duration) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{Step: i, Run: func() (uint64, int, error) {
			time.Sleep(d)
			return 1000, 2, nil
		}}
	}
	return tasks
}

func TestRunSerial(t *testing.T) {
	results, err := RunSerial(makeTasks(6, time.Millisecond), IOModel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Step != i || r.Wall <= 0 || r.BytesRead != 1000 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	tasks := makeTasks(3, 0)
	tasks[1].Run = func() (uint64, int, error) { return 0, 0, boom }
	if _, err := RunSerial(tasks, IOModel{}); !errors.Is(err, boom) {
		t.Fatalf("serial err = %v", err)
	}
}

func TestIOModel(t *testing.T) {
	m := IOModel{BandwidthBytesPerSec: 1 << 20, SeekLatency: time.Millisecond}
	got := m.Cost(1<<20, 3)
	want := time.Second + 3*time.Millisecond
	if got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
	if (IOModel{}).Cost(1<<30, 100) != 0 {
		t.Fatal("zero model should cost nothing")
	}
}

func TestRunAppliesIOModel(t *testing.T) {
	tasks := makeTasks(2, 0)
	m := IOModel{BandwidthBytesPerSec: 1e6, SeekLatency: time.Millisecond}
	results, err := RunSerial(tasks, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		wantIO := m.Cost(1000, 2)
		if r.IO != wantIO {
			t.Fatalf("IO = %v, want %v", r.IO, wantIO)
		}
		if r.Total() != r.Wall+r.IO {
			t.Fatal("Total inconsistent")
		}
	}
}

func TestMakespan(t *testing.T) {
	results := []Result{
		{Wall: 4 * time.Millisecond},
		{Wall: 1 * time.Millisecond},
		{Wall: 2 * time.Millisecond},
		{Wall: 3 * time.Millisecond},
	}
	// One node: sum = 10ms.
	if got := Makespan(results, Strided(4, 1)); got != 10*time.Millisecond {
		t.Fatalf("1 node makespan = %v", got)
	}
	// Two nodes strided: node0 = 4+2 = 6ms, node1 = 1+3 = 4ms.
	if got := Makespan(results, Strided(4, 2)); got != 6*time.Millisecond {
		t.Fatalf("2 node makespan = %v", got)
	}
	// Four nodes: slowest single task.
	if got := Makespan(results, Strided(4, 4)); got != 4*time.Millisecond {
		t.Fatalf("4 node makespan = %v", got)
	}
}

func TestStrongScaling(t *testing.T) {
	// 100 equal tasks scale almost ideally.
	results := make([]Result, 100)
	for i := range results {
		results[i].Wall = time.Millisecond
	}
	pts := StrongScaling(results, []int{1, 2, 5, 10, 20, 50, 100}, nil)
	if len(pts) != 7 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("speedup(1) = %g", pts[0].Speedup)
	}
	for _, p := range pts {
		ideal := float64(p.Nodes)
		if p.Speedup < 0.99*ideal || p.Speedup > 1.01*ideal {
			t.Fatalf("speedup(%d) = %g, want ≈%g", p.Nodes, p.Speedup, ideal)
		}
	}
}

func TestStrongScalingUnevenTasks(t *testing.T) {
	// With 4 tasks of very different sizes, speedup saturates at
	// total/largest.
	results := []Result{
		{Wall: 8 * time.Millisecond},
		{Wall: 1 * time.Millisecond},
		{Wall: 1 * time.Millisecond},
		{Wall: 1 * time.Millisecond},
	}
	pts := StrongScaling(results, []int{4, 100}, Strided)
	maxSpeedup := 11.0 / 8.0
	for _, p := range pts {
		if p.Speedup > maxSpeedup+1e-9 {
			t.Fatalf("speedup(%d) = %g exceeds bound %g", p.Nodes, p.Speedup, maxSpeedup)
		}
	}
}

func TestDynamicMakespan(t *testing.T) {
	results := []Result{
		{Wall: 4 * time.Millisecond},
		{Wall: 1 * time.Millisecond},
		{Wall: 2 * time.Millisecond},
		{Wall: 3 * time.Millisecond},
	}
	// One node: sum.
	if got := DynamicMakespan(results, 1); got != 10*time.Millisecond {
		t.Fatalf("1 node dynamic = %v", got)
	}
	// Two nodes list scheduling: 4|1,2,3 -> node0=4, node1=6.
	if got := DynamicMakespan(results, 2); got != 6*time.Millisecond {
		t.Fatalf("2 node dynamic = %v", got)
	}
	// LPT: sorted 4,3,2,1 -> node0=4+1=5, node1=3+2=5.
	if got := LPTMakespan(results, 2); got != 5*time.Millisecond {
		t.Fatalf("2 node LPT = %v", got)
	}
	// Zero nodes clamps.
	if got := DynamicMakespan(results, 0); got != 10*time.Millisecond {
		t.Fatalf("0 node dynamic = %v", got)
	}
}

func TestLPTNeverWorseThanStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	results := make([]Result, 60)
	for i := range results {
		results[i].Wall = time.Duration(rng.Intn(1000)+1) * time.Microsecond
	}
	var total, longest time.Duration
	for _, r := range results {
		total += r.Wall
		if r.Wall > longest {
			longest = r.Wall
		}
	}
	for _, n := range []int{2, 5, 10, 20} {
		cmp := CompareSchedules(results, []int{n})[0]
		// OPT >= max(total/n, longest); LPT is a 4/3-approximation of OPT.
		opt := total / time.Duration(n)
		if longest > opt {
			opt = longest
		}
		if cmp.LPT > opt*4/3+time.Microsecond {
			t.Fatalf("nodes=%d: LPT %v exceeds 4/3 bound of %v", n, cmp.LPT, opt)
		}
		// LPT should essentially never lose to blocked chunks by much.
		if cmp.LPT > cmp.Blocked+cmp.Blocked/10 {
			t.Fatalf("nodes=%d: LPT %v far worse than blocked %v", n, cmp.LPT, cmp.Blocked)
		}
		if cmp.Dynamic > cmp.Strided+cmp.Strided/2 {
			t.Fatalf("nodes=%d: dynamic %v far worse than strided %v", n, cmp.Dynamic, cmp.Strided)
		}
	}
}

// Property: every schedule's makespan is at least total/n and at least the
// longest task.
func TestMakespanLowerBoundsProperty(t *testing.T) {
	f := func(seed int64, nodesRaw uint8) bool {
		nodes := int(nodesRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		results := make([]Result, 30)
		var total, longest time.Duration
		for i := range results {
			d := time.Duration(rng.Intn(500)+1) * time.Microsecond
			results[i].Wall = d
			total += d
			if d > longest {
				longest = d
			}
		}
		lower := total / time.Duration(nodes)
		if longest > lower {
			lower = longest
		}
		cmp := CompareSchedules(results, []int{nodes})[0]
		for _, m := range []time.Duration{cmp.Strided, cmp.Blocked, cmp.Dynamic, cmp.LPT} {
			if m < lower {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
