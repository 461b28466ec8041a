module dedupstore/bench

go 1.22

require dedupstore v0.0.0

replace dedupstore => ../
