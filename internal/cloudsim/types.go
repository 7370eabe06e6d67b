package cloudsim

import (
	"repro/internal/circuit"
	"repro/internal/core"
)

// Job is one submitted quantum program: the arrival the simulators in
// this package feed the scheduler kernel with.
type Job struct {
	ID   int
	Circ *circuit.Circuit
	// Arrival is the submission time in seconds from simulation start.
	Arrival float64
}

// BatchRecord describes one executed batch. internal/service reuses
// this type verbatim for its per-backend batch traces and persists
// every field: JobIDs (the Job.IDs co-located in the batch), Start and
// Finish (seconds since service start), the post-compilation Depth and
// CNOTs, the compilation Strategy, and QubitsUsed (the number of
// physical qubits the batch occupied).
// The JSON tags match the service API's snake_case field convention.
type BatchRecord struct {
	JobIDs   []int         `json:"job_ids"`
	Start    float64       `json:"start"`
	Finish   float64       `json:"finish"`
	Depth    int           `json:"depth"`
	CNOTs    int           `json:"cnots"`
	Strategy core.Strategy `json:"strategy"`
	// QubitsUsed is the number of physical qubits the batch occupied.
	QubitsUsed int `json:"qubits_used"`
}
