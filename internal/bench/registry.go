package bench

import (
	"fmt"
	"io"
)

// Experiment couples a runner with the paper table/figure it regenerates.
type Experiment struct {
	// ID is the harness name, e.g. "table2" or "figure5".
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment, writing rows to w.
	Run func(w io.Writer, cfg Config)
}

// Experiments enumerates every table and figure of the evaluation.
var Experiments = []Experiment{
	{"table1", "Table 1: input graph statistics", Table1},
	{"table2", "Table 2: memory usage across Aspen formats", Table2},
	{"table3", "Tables 3-4: algorithm times, 1-thread vs all cores", Table34},
	{"table4", "Tables 3-4: algorithm times, 1-thread vs all cores", Table34},
	{"table5", "Table 5: memory and performance vs chunk size b", Table5},
	{"table6", "Table 6: BFS with and without flat snapshots", Table6},
	{"table7", "Table 7: concurrent updates and queries", Table7},
	{"table8", "Table 8: parallel batch-update throughput", Table8},
	{"figure5", "Figure 5: batch size vs insert/delete throughput", Figure5},
	{"table9", "Table 9: memory vs Stinger, LLAMA, Ligra+", Table9},
	{"table10", "Table 10: batch updates on an empty graph vs Stinger", Table10},
	{"table11", "Table 11: BFS/BC vs Stinger and LLAMA", Table11},
	{"table12", "Table 12: BFS/BC/MIS vs GAP, Galois, Ligra+", Table12},
	{"table13", "Table 13: BFS on uncompressed trees vs C-trees", Table13},
	{"table14", "Tables 14-15: Ligra+ vs Aspen, all algorithms", Table1415},
	{"table15", "Tables 14-15: Ligra+ vs Aspen, all algorithms", Table1415},
	{"ablation-diropt", "Ablation: direction optimization on Aspen BFS/BC", AblationDirOpt},
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every distinct experiment in order.
func RunAll(w io.Writer, cfg Config) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Title] {
			continue
		}
		seen[e.Title] = true
		fmt.Fprintf(w, "== %s ==\n", e.Title)
		e.Run(w, cfg)
		fmt.Fprintln(w)
	}
}
