package main

import "testing"

// The same seed must give byte-identical inputs, and another seed other
// inputs, for every workload.
func TestInputsDeterministic(t *testing.T) {
	gen := map[string]func(seed int64) (string, error){
		"exact": func(seed int64) (string, error) {
			c, err := exactCorpus(seed)
			if err != nil {
				return "", err
			}
			return digest(bodies(c)...), nil
		},
		"serve": func(seed int64) (string, error) {
			c, err := buildServeCorpus(seed)
			if err != nil {
				return "", err
			}
			return c.digest, nil
		},
		"batch": func(seed int64) (string, error) {
			c, err := buildBatchCorpus(seed)
			if err != nil {
				return "", err
			}
			return c.digest, nil
		},
	}
	for name, g := range gen {
		a, errA := g(3)
		b, errB := g(3)
		c, errC := g(4)
		if errA != nil || errB != nil || errC != nil {
			t.Fatalf("%s: %v %v %v", name, errA, errB, errC)
		}
		if a != b {
			t.Errorf("%s: seed 3 gave two different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", name)
		}
	}
}
