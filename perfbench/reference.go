package main

// referencePick is one TVOF selection recorded in BENCH_PR8.json's warm
// sweep (seed 42, sizes 256/1024/8192, 3 reps, 4000 trace jobs, 2M-node
// cap).
type referencePick struct {
	size, rep, voSize int
	avgRep, payoff    float64
}

// referencePicks are that file's warm points, copied so the benchmark
// reads nothing outside its own directory.
var referencePicks = []referencePick{
	{256, 0, 4, 0.11106544633886323, 2515.002259825862},
	{256, 1, 9, 0.08388737968597734, 442.60905461664436},
	{256, 2, 3, 0.08990711298454217, 2420.5851653844147},
	{1024, 0, 2, 0.12040317116392799, 5662.438286229037},
	{1024, 1, 3, 0.11780962392790091, 17661.866088395473},
	{1024, 2, 5, 0.0910910900354271, 9698.36685003133},
	{8192, 0, 8, 0.12499999888840281, 29226.083767795993},
	{8192, 1, 6, 0.12566004202912043, 47917.82451141401},
	{8192, 2, 9, 0.08491925768417675, 5137.3799378817075},
}
