// simsubbench is a module of its own so that the benchmark builds from its
// own directory; the replace directive points at the repository it measures.
module simsub/cmd/simsubbench

go 1.24

require simsub v0.0.0

replace simsub => ../..
