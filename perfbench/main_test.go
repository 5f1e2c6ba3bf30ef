package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestInterleaveKeepsOrderAndEvenPace(t *testing.T) {
	var got []string
	tasks := func(name string, n int) []func() error {
		var ts []func() error
		for i := 0; i < n; i++ {
			ts = append(ts, func() error { got = append(got, fmt.Sprint(name, i)); return nil })
		}
		return ts
	}
	for _, task := range interleave(tasks("a", 2), tasks("b", 5)) {
		task()
	}
	if s := strings.Join(got, " "); s != "a0 b0 b1 b2 a1 b3 b4" {
		t.Fatalf("order = %s", s)
	}
	if n := len(interleave(nil, tasks("b", 3))); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
}
