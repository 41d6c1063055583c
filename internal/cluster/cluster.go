// Package cluster models the distributed-memory execution environment of
// the paper's scalability study (Section V-C): timesteps are statically
// assigned to nodes in a strided fashion, each node processes its
// timesteps independently (there is no inter-node communication in either
// algorithm), and the job finishes when the slowest node finishes.
//
// Tasks run one after another (RunSerial), each timed; virtual strong
// scaling then gives the completion time for ANY node count as the
// makespan of the static assignment — max over nodes of the sum of that
// node's task times. This evaluates 1..100-node scaling faithfully on a
// laptop, because the modelled machine's nodes are independent.
//
// An optional I/O cost model adds per-task disk time (bytes/bandwidth +
// seeks·latency), standing in for the Lustre filesystem the paper's runs
// read from.
//
// The package also holds the RPC transport the sharded serving tier rides
// on (Caller, Pool.CallOn with failover and hedging, circuit breakers, the
// retry budget, faultnet). What a node computes is not decided here: the
// planner (internal/plan) cuts every operation, multi-step ones included,
// into fragments that internal/shard serves over this transport.
package cluster

import (
	"fmt"
	"time"
)

// Task is one unit of per-timestep work. Run returns the number of data
// bytes it read and the number of distinct file regions it touched, which
// feed the I/O model.
type Task struct {
	Step int
	Run  func() (bytesRead uint64, seeks int, err error)
}

// Result records one task's execution.
type Result struct {
	Step      int
	Wall      time.Duration // measured compute+real-I/O time
	IO        time.Duration // modelled extra I/O time (zero without a model)
	BytesRead uint64
	Err       error
}

// Total returns the modelled task duration (measured + modelled I/O).
func (r Result) Total() time.Duration { return r.Wall + r.IO }

// IOModel adds synthetic storage time to each task. The zero value
// disables modelling.
type IOModel struct {
	BandwidthBytesPerSec float64
	SeekLatency          time.Duration
}

// Cost returns the modelled I/O time for a task.
func (m IOModel) Cost(bytes uint64, seeks int) time.Duration {
	var d time.Duration
	if m.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(bytes) / m.BandwidthBytesPerSec * float64(time.Second))
	}
	d += time.Duration(seeks) * m.SeekLatency
	return d
}

// Assignment maps each node to the ordered task indices it processes.
type Assignment [][]int

// Strided assigns task i to node i mod nodes — the paper's static strided
// assignment of timesteps to nodes.
func Strided(nTasks, nodes int) Assignment {
	if nodes < 1 {
		nodes = 1
	}
	a := make(Assignment, nodes)
	for i := 0; i < nTasks; i++ {
		n := i % nodes
		a[n] = append(a[n], i)
	}
	return a
}

// Blocked assigns contiguous chunks of tasks to nodes, the alternative
// strategy ablated in the benchmarks.
func Blocked(nTasks, nodes int) Assignment {
	if nodes < 1 {
		nodes = 1
	}
	a := make(Assignment, nodes)
	base := nTasks / nodes
	rem := nTasks % nodes
	idx := 0
	for n := 0; n < nodes; n++ {
		cnt := base
		if n < rem {
			cnt++
		}
		for i := 0; i < cnt; i++ {
			a[n] = append(a[n], idx)
			idx++
		}
	}
	return a
}

// RunSerial executes all tasks one after another on the calling goroutine,
// for clean single-node timings.
func RunSerial(tasks []Task, model IOModel) ([]Result, error) {
	results := make([]Result, len(tasks))
	for i := range tasks {
		results[i] = runOne(tasks[i], model)
		if results[i].Err != nil {
			return results, fmt.Errorf("cluster: task %d (step %d): %w", i, results[i].Step, results[i].Err)
		}
	}
	return results, nil
}

func runOne(t Task, model IOModel) Result {
	start := time.Now()
	bytes, seeks, err := t.Run()
	wall := time.Since(start)
	return Result{
		Step:      t.Step,
		Wall:      wall,
		IO:        model.Cost(bytes, seeks),
		BytesRead: bytes,
		Err:       err,
	}
}

// Makespan returns the virtual completion time of the assignment: the
// slowest node's total task time.
func Makespan(results []Result, a Assignment) time.Duration {
	var worst time.Duration
	for _, node := range a {
		var total time.Duration
		for _, idx := range node {
			total += results[idx].Total()
		}
		if total > worst {
			worst = total
		}
	}
	return worst
}

// ScalingPoint is one point of a strong-scaling curve.
type ScalingPoint struct {
	Nodes   int
	Time    time.Duration
	Speedup float64 // time(1 node) / time(n nodes)
}

// StrongScaling evaluates the virtual strong-scaling curve of measured
// results over the given node counts using the assignment strategy.
func StrongScaling(results []Result, nodeCounts []int, assign func(nTasks, nodes int) Assignment) []ScalingPoint {
	if assign == nil {
		assign = Strided
	}
	base := Makespan(results, assign(len(results), 1))
	out := make([]ScalingPoint, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		t := Makespan(results, assign(len(results), n))
		sp := 0.0
		if t > 0 {
			sp = float64(base) / float64(t)
		}
		out = append(out, ScalingPoint{Nodes: n, Time: t, Speedup: sp})
	}
	return out
}
