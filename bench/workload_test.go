package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign/gen"
)

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		same, differs := true, false
		for i := 0; i < 200; i++ {
			a, b, c := w.op(1, i), w.op(1, i), w.op(2, i)
			same = same && bytes.Equal(a.body, b.body)
			differs = differs || !bytes.Equal(a.body, c.body)
		}
		if !same {
			t.Errorf("%s: seed 1 generated two different streams", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 generated the same stream", w.name)
		}
		warm1, warm2 := w.warmup(1), w.warmup(1)
		for k := range warm1 {
			if !bytes.Equal(warm1[k].body, warm2[k].body) {
				t.Errorf("%s: warm-up op %d differs between calls", w.name, k)
			}
		}
	}
}

func TestRepeatedTrafficShares(t *testing.T) {
	const n = 2000
	for _, w := range workloads {
		bodies := make(map[string]bool)
		hot := 0
		for i := 0; i < n; i++ {
			o := w.op(1, i)
			bodies[string(o.body)] = true
			if o.hot >= 0 {
				hot++
			}
		}
		switch {
		case w.hotPool == 0 && len(bodies) != n:
			t.Errorf("%s: %d distinct bodies in %d, want no duplicates", w.name, len(bodies), n)
		case w.hotPool > 0 && (hot < n*45/100 || hot > n*55/100):
			t.Errorf("%s: %d of %d ops from the hot pool, want about half", w.name, hot, n)
		case w.hotPool > 0 && len(bodies) != n-hot+w.hotPool:
			t.Errorf("%s: %d distinct bodies, want %d", w.name, len(bodies), n-hot+w.hotPool)
		}
	}
}

// TestBodiesNormalize checks that every generated body is a valid
// request of its endpoint.
func TestBodiesNormalize(t *testing.T) {
	for _, w := range workloads {
		ops := w.warmup(1)
		for i := 0; i < 500; i++ {
			ops = append(ops, w.op(1, i))
		}
		for k, o := range ops {
			var err error
			switch o.kind {
			case kindMeasure:
				err = normalize[api.MeasureRequest](o.body)
			case kindAnalyze:
				err = normalize[api.AnalyzeRequest](o.body)
			case kindPlan:
				err = normalize[api.PlanRequest](o.body)
			case kindInfer:
				err = normalize[api.InferRequest](o.body)
			case kindSession:
				err = normalize[api.SessionRequest](o.body)
			}
			if err != nil {
				t.Fatalf("%s op %d %s %s: %v", w.name, k, o.kind.path(), o.body, err)
			}
		}
	}
}

func normalize[R interface{ Normalized() (R, error) }](body []byte) error {
	var r R
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return err
	}
	_, err := r.Normalized()
	return err
}

func TestTruth(t *testing.T) {
	p, err := gen.Parse("gen:v1:branch:7:64")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bench string
		want  int64
	}{
		{"null", 0},
		{"loop:1000", 3001},
		{"array:500", 2001},
		{"loop:100000000", 300000001},
		{"gen:v1:branch:7:64", p.ExpectedInstr()},
	} {
		if got, err := truth(c.bench); err != nil || got != c.want {
			t.Errorf("truth(%q) = %d, %v; want %d", c.bench, got, err, c.want)
		}
	}
	if _, err := truth("bogus:1"); err == nil {
		t.Error("truth accepted an unknown benchmark")
	}
}
