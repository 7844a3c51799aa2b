package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture gloved targets.
const clockTicks = 100

// parseStatCPU returns user+system CPU seconds from one line of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and may
// hold spaces or parentheses itself, so fields are counted from the
// last ')'.
func parseStatCPU(line string) (float64, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat line without command field: %q", line)
	}
	// After ") " come field 3 (state) onwards; utime and stime are
	// fields 14 and 15, so indices 11 and 12 here.
	f := strings.Fields(line[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command, need 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// processCPU reads a live process's user+system CPU seconds.
func processCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatusKB returns the value in kB of one "Key:   N kB" field of a
// /proc/<pid>/status document.
func parseStatusKB(doc, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(doc))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status %s: unexpected value %q", key, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status has no %s field", key)
}

// peakRSSMB reads a live process's resident high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
