package main

import (
	"path/filepath"
	"testing"
	"time"
)

func sp(id, parent uint64, start, end int) span {
	return span{ID: id, Parent: parent, Name: "s", Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 40),
		sp(3, 1, 30, 60),  // overlaps 2: together they cover 10..60
		sp(4, 1, 20, 25),  // nested inside 2: covers nothing new
		sp(5, 1, 90, 120), // runs past the parent: only 90..100 counts
		sp(6, 2, 10, 40),  // grandchild: subtracted from 2, not from 1
	}
	self := selfTimes(spans)
	if got := self[1]; got != 40 {
		t.Errorf("parent self = %d, want 100 - (50 + 10) = 40", got)
	}
	if got := self[2]; got != 0 {
		t.Errorf("child fully covered by its child: self = %d, want 0", got)
	}
	if got := self[5]; got != 30 {
		t.Errorf("leaf self = %d, want its duration 30", got)
	}
}

func TestSelfTimeDisjointChildren(t *testing.T) {
	self := selfTimes([]span{sp(1, 0, 0, 10), sp(2, 1, 1, 3), sp(3, 1, 5, 6)})
	if self[1] != 7 {
		t.Errorf("self = %d, want 7", self[1])
	}
}

func TestLayerTableAggregatesByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "b", Start: 2, End: 4},
		{ID: 3, Name: "a", Start: 20, End: 25},
	}
	rows := layerTable(spans)
	if len(rows) != 2 || rows[0].Name != "a" || rows[0].N != 2 || rows[0].Busy != 15 || rows[0].Self != 13 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestNilTracerTimesWithoutRecording(t *testing.T) {
	var tr *tracer
	d, err := tr.timed("x", 0, func(id uint64) error {
		if id != 0 {
			t.Errorf("nil tracer handed out span id %d", id)
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || d < time.Millisecond {
		t.Errorf("timed = %v, %v", d, err)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestTracerRecordsParentAndWritesJSONL(t *testing.T) {
	tr := newTracer()
	_, _ = tr.timed("outer", 0, func(id uint64) error {
		_, err := tr.timed("inner", id, func(uint64) error { return nil })
		return err
	})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Name != "inner" || spans[0].Parent != spans[1].ID {
		t.Fatalf("spans = %+v", spans)
	}
	if err := writeJSONL(filepath.Join(t.TempDir(), "t.jsonl"), spans); err != nil {
		t.Fatal(err)
	}
}
