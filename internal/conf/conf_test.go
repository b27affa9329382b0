package conf

import (
	"testing"
	"time"
)

func TestSanitizeClampsNonsense(t *testing.T) {
	c := Config{BatchSize: -1, FlushInterval: -time.Second, MaxInFlight: 0, MempoolCap: -5, Lanes: 0}
	c.Sanitize()
	if c.BatchSize < 1 || c.MaxInFlight < 1 || c.MempoolCap < 1 || c.Lanes < 1 || c.FlushInterval < 0 || c.DedupTTL <= 0 {
		t.Fatalf("sanitize failed: %+v", c)
	}
	d := Defaults()
	d.Sanitize()
	if d != Defaults() {
		t.Fatalf("sanitize changed the defaults: %+v", d)
	}
}

func TestWithDefaultsFillsOnlyUnsetFields(t *testing.T) {
	if got := (Config{}).WithDefaults(); got != Defaults() {
		t.Fatalf("zero config resolved to %+v, want the defaults", got)
	}
	got := Config{BatchSize: 3, FlushInterval: -time.Second, SnapshotEvery: 8}.WithDefaults()
	want := Defaults()
	want.BatchSize, want.SnapshotEvery = 3, 8
	if got != want {
		t.Fatalf("resolved %+v, want %+v", got, want)
	}
}
