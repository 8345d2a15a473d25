// The repo benchmark is a module of its own so that it builds from its own
// directory with its own build file; the htmgil/ path prefix is what lets
// it import the simulator's internal packages through the replace below.
module htmgil/benchmark

go 1.22

require htmgil v0.0.0

replace htmgil => ../
