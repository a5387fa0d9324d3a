package core

import "fmt"

// This file provides the sporadic ReleaseModel of Section 2: minimum
// rather than exact job separation.

// SporadicModel delays whole jobs: job j is released Gap(j) slots after
// its earliest permitted time, so consecutive releases are separated by at
// least the period — the classic sporadic model, which the IS model
// generalizes. All subtasks of a job share its delay.
type SporadicModel struct {
	// Gap returns the extra separation before job j ≥ 1 (0 for a
	// punctual release). It must be non-negative. Gaps accumulate: a
	// late job shifts all later jobs.
	Gap func(job int64) int64
	// Cost is the task's per-job cost e (positive), needed to map
	// subtasks to jobs.
	Cost int64

	memo []int64 // memo[j-1] = cumulative offset of job j
}

// Offset implements ReleaseModel: subtask i belongs to job ⌈i/e⌉ and
// carries that job's cumulative delay.
//
//pfair:hotpath
//pfair:keep §2 sporadic claim: TestSporadicPD2NoMisses runs PD² on sporadic tasks through this model (DESIGN.md §3)
func (m *SporadicModel) Offset(i int64) int64 {
	job := (i-1)/m.Cost + 1
	for int64(len(m.memo)) < job {
		j := int64(len(m.memo)) + 1
		g := int64(0)
		if m.Gap != nil {
			g = m.Gap(j)
			if g < 0 {
				//pfair:allowpanic Gap callback contract: a negative gap would move a release into the past
				panic(fmt.Sprintf("core: negative sporadic gap %d for job %d", g, j))
			}
		}
		prev := int64(0)
		if j > 1 {
			prev = m.memo[j-2]
		}
		m.memo = append(m.memo, prev+g)
	}
	return m.memo[job-1]
}

// Earliness implements ReleaseModel (sporadic tasks are never early).
//
//pfair:hotpath
//pfair:keep §2 sporadic claim: the other half of the model TestSporadicPD2NoMisses runs
func (m *SporadicModel) Earliness(int64) int64 { return 0 }
