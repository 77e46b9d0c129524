// Package shardpure is vclint's fixture for the task-body purity
// analyzer: an impure sched.Graph implementation whose Run updates
// shared aggregate state, submit-closures that write captured
// variables, a task method that writes its receiver, and the pure
// shard-indexed counterparts that must stay silent. The sched import pulls the real Graph interface into the
// program so the CHA implementation check runs against the shipped
// type, not a fixture copy.
package shardpure

import (
	"context"

	"vcprof/internal/sched"
)

// cellGraph implements sched.Graph, so its Run is a scheduler task
// body: concurrent workers execute it for distinct task indices.
type cellGraph struct {
	res  []int
	done int
}

var _ sched.Graph = (*cellGraph)(nil)

func (g *cellGraph) NumTasks() int      { return len(g.res) }
func (g *cellGraph) Deps(i int) []int   { return nil }
func (g *cellGraph) Cost(i int) uint64  { return 1 }
func (g *cellGraph) Label(i int) string { return "cell" }

// Run fills its own slot (fine) and then updates a shared counter —
// the seeded impurity: which worker increments last is a schedule
// accident.
func (g *cellGraph) Run(ctx context.Context, task, worker int) error {
	g.res[task] = task * 2
	g.done++ // want `shardpure: task body increments shared "g"`
	return nil
}

// graph mimics a task-graph builder; its add method is a configured
// submit function, so run closures are task bodies, and its exec method
// a configured task function, so its own body is one.
type graph struct {
	tasks []func(worker int) error
	res   []int
	last  int
}

// exec fills its worker's slot (fine) and then records the last worker
// on the receiver, which every task shares.
func (g *graph) exec(worker int) error {
	g.res[worker] = worker
	g.last = worker // want `shardpure: task body writes shared "g" without an element index`
	return nil
}

func (g *graph) add(name string, run func(worker int) error) int {
	g.tasks = append(g.tasks, run)
	return len(g.tasks) - 1
}

// build submits one pure closure (element store into a captured slice:
// every task owns its slot) and two impure ones.
func build(res []int, total *int) *graph {
	g := &graph{}
	last := 0
	g.add("pure", func(worker int) error {
		res[0] = worker // element store: allowed
		return nil
	})
	g.add("accumulate", func(worker int) error {
		*total += worker // want `shardpure: task body read-modify-writes shared "total"`
		return nil
	})
	g.add("capture", func(worker int) error {
		last = worker // want `shardpure: task body writes shared "last" without an element index`
		return nil
	})
	_ = last
	return g
}
