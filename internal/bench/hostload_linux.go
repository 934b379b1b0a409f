package bench

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sampleLoad reads the process's CPU time (getrusage) and the host's busy
// and total CPU time (the first line of /proc/stat, in ticks of 1/100 s:
// user nice system idle iowait irq softirq steal ...; steal counts as busy,
// since the hypervisor ran someone else).
func sampleLoad() (hostLoad, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return hostLoad{}, false
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostLoad{}, false
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return hostLoad{}, false
	}
	var t [8]time.Duration
	for i := range t {
		v, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return hostLoad{}, false
		}
		t[i] = time.Duration(v) * 10 * time.Millisecond
	}
	busy := t[0] + t[1] + t[2] + t[5] + t[6] + t[7]
	return hostLoad{
		own:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		busy:  busy,
		total: busy + t[3] + t[4],
	}, true
}
