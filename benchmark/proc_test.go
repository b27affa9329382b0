package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tprever-server\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 10240 kB\n")
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 20480 {
		t.Fatalf("VmHWM = %d, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing field found")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for x := 0; time.Now().Before(deadline); x++ {
		_ = x * x
	}
	if selfCPU() <= 0 {
		t.Error("selfCPU is zero after spinning")
	}
	for _, read := range []func(int) (float64, error){procPeakRSSMiB, procRSSMiB} {
		if rss, err := read(os.Getpid()); err != nil || rss <= 0 {
			t.Errorf("RSS = %v, %v", rss, err)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat([]byte("6720381 10261579 12\n"))
	if err != nil || got != 6720381*time.Nanosecond {
		t.Fatalf("schedstat = %v, %v", got, err)
	}
	if _, err := parseSchedstat(nil); err == nil {
		t.Error("empty schedstat parsed")
	}
	cpu, err := procThreadsCPU(os.Getpid())
	if err != nil || cpu <= 0 {
		t.Errorf("own threads' CPU = %v, %v", cpu, err)
	}
}
