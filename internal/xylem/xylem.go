// Package xylem models the services of Cedar's operating system — Xylem,
// the kernel that links the four Alliant clusters' operating systems into
// one [EABM91] — at the altitude the paper's measurements need: cluster
// task management (gang-scheduled "cluster tasks" whose creation costs
// milliseconds, which is why programs are structured as loop phases and
// not task spawns), and the Fortran I/O path whose formatted conversions
// dominated BDNA's runtime until the hand version switched to unformatted
// transfers.
package xylem

import "cedar/internal/params"

// IOMode selects the Fortran I/O path.
type IOMode uint8

// I/O modes.
const (
	// Formatted I/O converts every datum through the Fortran runtime's
	// text formatter: hundreds of cycles per word.
	Formatted IOMode = iota
	// Unformatted I/O moves binary records: a few cycles per word of
	// buffer copy plus the device time.
	Unformatted
)

// IOModel prices Fortran I/O.
type IOModel struct {
	// FormattedCyclesPerWord is the conversion cost of formatted I/O.
	FormattedCyclesPerWord int64
	// UnformattedCyclesPerWord is the buffer-copy cost of binary I/O.
	UnformattedCyclesPerWord int64
	// DeviceWordsPerSec is the backing store's streaming rate.
	DeviceWordsPerSec float64
}

// DefaultIO returns the model calibrated so BDNA-scale formatted output
// (tens of millions of words) costs the tens of seconds the paper's
// Table 4 I/O fix recovered.
func DefaultIO() IOModel {
	return IOModel{
		FormattedCyclesPerWord:   350,
		UnformattedCyclesPerWord: 4,
		DeviceWordsPerSec:        2e6,
	}
}

// Seconds prices an I/O volume in a mode: CPU conversion time plus device
// streaming time (overlapped with neither in the serial Fortran library).
func (io IOModel) Seconds(words int64, mode IOMode) float64 {
	per := io.UnformattedCyclesPerWord
	if mode == Formatted {
		per = io.FormattedCyclesPerWord
	}
	cpu := params.CyclesToSeconds(words * per)
	dev := float64(words) / io.DeviceWordsPerSec
	return cpu + dev
}

// TaskModel prices Xylem cluster-task operations.
type TaskModel struct {
	// SpawnCycles is the cost of creating a gang-scheduled cluster task.
	SpawnCycles int64
	// SwitchCycles is a cluster-task context switch.
	SwitchCycles int64
}

// DefaultTasks returns costs in the millisecond regime that pushed Cedar
// programs toward loop-level parallelism instead of task spawning.
func DefaultTasks() TaskModel {
	return TaskModel{
		SpawnCycles:  int64(params.MicrosToCycles(3000)),
		SwitchCycles: int64(params.MicrosToCycles(500)),
	}
}
