module cliffedge/bench

go 1.24

require cliffedge v0.0.0

replace cliffedge => ../
