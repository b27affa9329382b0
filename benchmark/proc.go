package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procThreadsCPU sums the on-CPU time of every thread of a process from
// /proc/<pid>/task/*/schedstat, at nanosecond resolution (the clock
// ticks of /proc/<pid>/stat are too coarse for a set-up of a few
// milliseconds). Threads that already exited are not counted.
func procThreadsCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited meanwhile
		}
		ns, err := parseSchedstat(b)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// parseSchedstat reads the on-CPU nanoseconds, the first field of a
// schedstat line.
func parseSchedstat(b []byte) (time.Duration, error) {
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// parseStatusKB returns the value of a "Name:   N kB" line from the
// contents of /proc/<pid>/status.
func parseStatusKB(status []byte, name string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != name {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return 0, fmt.Errorf("proc status %s: empty", name)
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status %s: %w", name, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", name)
}

// procPeakRSSMiB returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMiB(pid int) (float64, error) { return procStatusMiB(pid, "VmHWM") }

// procRSSMiB returns a process's current resident set (VmRSS) in MiB.
func procRSSMiB(pid int) (float64, error) { return procStatusMiB(pid, "VmRSS") }

func procStatusMiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, field)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// selfCPU returns this process's user+system CPU time at microsecond
// resolution (getrusage), finer than the clock ticks /proc reports.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total jiffies
// and the hypervisor's steal jiffies.
func cpuTimes() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of CPU time the hypervisor took between two
// cpuTimes readings.
func stealShare(total0, steal0, total1, steal1 int64) float64 {
	return ratio(float64(steal1-steal0), float64(total1-total0))
}
