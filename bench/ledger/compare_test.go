package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(10), steady(10), verdictOK},
		{"slower within bound", lower, steady(10), steady(10.9), verdictOK},
		{"slower beyond bound", lower, steady(10), steady(11.2), verdictWorse},
		{"faster is never worse", lower, steady(10), steady(5), verdictOK},
		{"rate down beyond bound", higher, steady(100), steady(88), verdictWorse},
		{"rate up", higher, steady(100), steady(150), verdictOK},
		{"too noisy to tell", lower, []float64{8, 10, 12, 9, 13}, steady(11.2), verdictUnresolved},
		{"single runs have no spread", lower, []float64{10}, []float64{11.2}, verdictWorse},
	} {
		if _, _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
	if _, _, rel, _ := judge(lower, []float64{10}, []float64{12}); rel != 1.2 {
		t.Errorf("ratio is B over A: got %v", rel)
	}
}
