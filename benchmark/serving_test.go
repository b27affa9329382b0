package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestCheckRead(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	const size = 64
	recs := []writeRec{
		{ver: 1, start: at(0), ack: at(5), acked: true},
		{ver: 2, start: at(10), ack: at(20), acked: true},
		{ver: 3, start: at(15), ack: at(25), acked: true}, // overlaps version 2
		{ver: 4, start: at(30), acked: false},             // outcome unknown
	}
	ok := func(ver int64) error { return checkRead(recs, 9, value(9, ver, size), true, size) }
	for _, ver := range []int64{2, 3, 4} {
		if err := ok(ver); err != nil {
			t.Errorf("version %d should be allowed: %v", ver, err)
		}
	}
	if err := ok(1); err == nil {
		t.Error("version 1 was overwritten by acked writes but passed")
	}
	if err := ok(7); err == nil {
		t.Error("a version never written passed")
	}
	if err := checkRead(recs, 9, nil, false, size); err == nil {
		t.Error("a lost key passed")
	}
	if err := checkRead(recs, 9, value(8, 3, size), true, size); err == nil {
		t.Error("another key's payload passed")
	}
	if err := checkRead(nil, 9, nil, false, size); err != nil {
		t.Errorf("never-written key reading not-found: %v", err)
	}
}

func TestMakeOpsIsSeeded(t *testing.T) {
	spec := servingSpec{Keys: 1000, TxPerReq: 64, ReadShare: 0}
	a, b := makeOps(spec, 5, 50), makeOps(spec, 5, 50)
	for i := range a {
		seen := map[int]bool{}
		for j, k := range a[i].keys {
			if k != b[i].keys[j] {
				t.Fatal("same seed gave different inputs")
			}
			if seen[k] {
				t.Fatalf("request %d repeats key %d", i, k)
			}
			seen[k] = true
		}
	}
	z := newZipfian(10000, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	hot := map[int]int{}
	for i := 0; i < 20000; i++ {
		hot[z.next(rng)]++
	}
	top := 0
	for _, n := range hot {
		if n > top {
			top = n
		}
	}
	if top < 500 || len(hot) < 2000 {
		t.Errorf("not Zipfian: hottest key %d of 20000, %d distinct", top, len(hot))
	}
}
