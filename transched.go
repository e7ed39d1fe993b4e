// Package transched schedules data transfers between two memory nodes to
// maximise communication-computation overlap, implementing "Performance
// Models for Data Transfers: A Case Study with Molecular Chemistry
// Kernels" (Kumar, Eyraud-Dubois, Krishnamoorthy; ICPP 2019).
//
// # The problem
//
// A set of independent tasks runs on a processing unit behind a single
// serial communication link; each task transfers its input data into a
// local memory of capacity C, holds it until its computation completes,
// and the goal is to order the transfers (and computations) to minimise
// the makespan. With unlimited memory this is the classic 2-machine
// flowshop solved by Johnson's rule; with finite memory it is NP-complete
// (the paper's Theorem 2, included here as a runnable reduction in the
// reduction API).
//
// # Quick start
//
//	in := transched.NewInstance([]transched.Task{
//	    transched.NewTask("A", 3, 2),
//	    transched.NewTask("B", 1, 3),
//	    transched.NewTask("C", 4, 4),
//	    transched.NewTask("D", 2, 1),
//	}, 6) // memory capacity
//
//	for _, h := range transched.Heuristics(in.Capacity) {
//	    s, err := h.Run(in)
//	    ...
//	    fmt.Printf("%-8s makespan %g (ratio %.3f)\n",
//	        h.Name, s.Makespan(), s.Makespan()/transched.OMIM(in.Tasks))
//	}
//
// The fourteen heuristics of the paper are available by acronym (OS, GG,
// BP, OOSIM, IOCMS, DOCPS, IOCCS, DOCCS, LCMR, SCMR, MAMR, OOLCMR,
// OOSCMR, OOMAMR), plus the windowed MILP lp.k through SolveMILP. Advise
// recommends heuristics for a workload following the paper's Table 6.
//
// # Substrates
//
// Everything the experiments need is in the module: a two-phase simplex
// and branch-and-bound MILP solver (GenerateTraces' GLPK substitute), a
// Gilmore–Gomory no-wait flowshop sequencer, a synthetic NWChem HF/CCSD
// trace generator over a Cascade-like machine model, trace file IO, an
// ASCII Gantt renderer and the statistics used by the paper's figures.
package transched

import (
	"io"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/gantt"
	"transched/internal/heuristics"
	"transched/internal/lpsched"
	"transched/internal/obs"
	"transched/internal/simulate"
	"transched/internal/trace"
)

// Task is one unit of work: an input transfer (Comm, occupying Mem bytes
// of the target memory until the computation ends) followed by a
// computation (Comp).
type Task = core.Task

// Instance is a scheduling problem: tasks in submission order plus the
// target memory capacity.
type Instance = core.Instance

// Schedule is a complete solution; Validate checks link and processing
// unit exclusivity, transfer-before-compute, and the memory capacity.
type Schedule = core.Schedule

// Assignment is one task's placement in a schedule.
type Assignment = core.Assignment

// NewTask builds a task whose memory requirement equals its communication
// time (the paper's convention for all hand examples).
func NewTask(name string, comm, comp float64) Task { return core.NewTask(name, comm, comp) }

// NewInstance copies the tasks into an instance with the given capacity.
func NewInstance(tasks []Task, capacity float64) *Instance {
	return core.NewInstance(tasks, capacity)
}

// Heuristic is a named scheduling strategy from the paper.
type Heuristic = heuristics.Heuristic

// Category groups heuristics as the paper does (baseline, static,
// dynamic, static+dynamic corrections).
type Category = heuristics.Category

// Heuristics returns all fourteen strategies in the paper's figure order.
// No strategy reads capacity: BP sizes its bins from the capacity of the
// run it drives, so any value works; the parameter only keeps existing
// callers compiling.
func Heuristics(capacity float64) []Heuristic { return heuristics.All(capacity) }

// HeuristicByName returns one strategy by its paper acronym; like
// Heuristics, it ignores capacity.
func HeuristicByName(name string, capacity float64) (Heuristic, error) {
	return heuristics.ByName(name, capacity)
}

// HeuristicNames lists the acronyms in figure order.
func HeuristicNames() []string { return heuristics.Names() }

// Advise recommends heuristics for the instance per the paper's Table 6,
// in preference order.
func Advise(in *Instance) []string { return heuristics.Advise(in) }

// JohnsonOrder returns the optimal infinite-memory order (paper Alg 1).
func JohnsonOrder(tasks []Task) []int { return flowshop.JohnsonOrder(tasks) }

// OMIM returns the optimal makespan with infinite memory — the lower
// bound every heuristic's ratio-to-optimal is measured against.
func OMIM(tasks []Task) float64 { return flowshop.OMIM(tasks) }

// GilmoreGomoryOrder returns the exact minimal-makespan sequence for the
// 2-machine no-wait flowshop relaxation (the GG heuristic's order).
func GilmoreGomoryOrder(tasks []Task) []int { return flowshop.GilmoreGomoryOrder(tasks) }

// ScheduleStatic executes a fixed permutation on both resources under the
// memory capacity (the executor behind every static heuristic).
func ScheduleStatic(in *Instance, order []int) (*Schedule, error) {
	return simulate.Static(in, order)
}

// Criterion ranks candidates during dynamic selection; see LargestComm,
// SmallestComm and MaxAccelerated.
type Criterion = simulate.Criterion

// Dynamic-selection criteria (paper §4.2).
var (
	LargestComm    Criterion = simulate.LargestComm
	SmallestComm   Criterion = simulate.SmallestComm
	MaxAccelerated Criterion = simulate.MaxAccelerated
)

// ScheduleDynamic runs the dynamic event loop with the criterion.
func ScheduleDynamic(in *Instance, crit Criterion) (*Schedule, error) {
	return simulate.Dynamic(in, crit)
}

// ScheduleCorrected follows a static order with dynamic corrections.
func ScheduleCorrected(in *Instance, order []int, crit Criterion) (*Schedule, error) {
	return simulate.Corrected(in, order, crit)
}

// Policy lets callers combine an order function and a criterion; see
// RunBatches for the batch semantics of paper §6.3.
type Policy = simulate.Policy

// RunBatches schedules the instance in submission-order batches of the
// given size, carrying resource and memory state across batches.
func RunBatches(in *Instance, batchSize int, p Policy) (*Schedule, error) {
	return simulate.RunBatches(in, batchSize, p)
}

// MILPOptions tunes the windowed MILP heuristic lp.k (paper §4.5).
type MILPOptions = lpsched.Options

// MILPResult carries the schedule plus branch-and-bound statistics.
type MILPResult = lpsched.Result

// SolveMILP runs the iterative windowed MILP heuristic lp.k.
func SolveMILP(in *Instance, opts MILPOptions) (*MILPResult, error) {
	return lpsched.Solve(in, opts)
}

// SolveMILPExact solves the paper's full MILP over the whole instance
// (practical only for small instances). maxNodes caps the branch and
// bound (0 means 500,000 nodes). The schedule is exact only when the
// search proves it optimal; a search the cap stops returns its best
// incumbent, which is the greedy completion seeding the search when
// nothing beat it. Every valid instance gets a schedule.
func SolveMILPExact(in *Instance, maxNodes int) (*Schedule, error) {
	s, _, err := lpsched.SolveExact(in, maxNodes)
	return s, err
}

// Machine models the cluster (paper §5); Cascade returns the paper's
// 10-node platform with 150 worker processes.
type Machine = cluster.Machine

// Cascade returns the modelled PNNL Cascade platform.
func Cascade() Machine { return cluster.Cascade() }

// Trace is one process's task stream.
type Trace = trace.Trace

// TraceConfig sizes the synthetic trace generators.
type TraceConfig = chem.Config

// GenerateTraces synthesises per-process traces for "HF" or "CCSD" with
// the statistical shape of the paper's NWChem workloads.
func GenerateTraces(app string, m Machine, cfg TraceConfig) ([]*Trace, error) {
	return chem.Generate(app, m, cfg)
}

// ReadTrace parses one trace in the plain-text v1 format from a reader
// (stdin pipelines, network payloads); ReadTraceFile is its file-path
// convenience.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace serialises one trace in the plain-text v1 format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// ReadTraceFile and WriteTraceFile use the plain-text v1 trace format.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// WriteTraceFile writes one trace, creating parent directories.
func WriteTraceFile(path string, tr *Trace) error { return trace.WriteFile(path, tr) }

// ReadTraceSet reads every *.trace file in a directory.
func ReadTraceSet(dir string) ([]*Trace, error) { return trace.ReadSet(dir) }

// WriteTraceSet writes one file per trace into dir.
func WriteTraceSet(dir string, traces []*Trace) ([]string, error) {
	return trace.WriteSet(dir, traces)
}

// RenderGantt draws the schedule as a two-row ASCII chart.
func RenderGantt(s *Schedule, width int) string { return gantt.Render(s, width) }

// RenderGanttWithLegend adds per-task timing lines to the chart.
func RenderGanttWithLegend(s *Schedule, width int) string {
	return gantt.RenderWithLegend(s, width)
}

// WriteGantt renders the schedule to a writer.
func WriteGantt(w io.Writer, s *Schedule, width int) error {
	_, err := io.WriteString(w, gantt.Render(s, width))
	return err
}

// WriteScheduleTrace writes the schedule as a Chrome trace-event JSON
// document — link and processing-unit tracks plus a memory-occupancy
// counter — loadable in Perfetto or chrome://tracing (the programmatic
// sibling of WriteGantt; see OBSERVABILITY.md).
func WriteScheduleTrace(w io.Writer, s *Schedule) error {
	return obs.ScheduleTrace(s).WriteJSON(w)
}
