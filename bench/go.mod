module l2bm/bench

go 1.22

require l2bm v0.0.0

replace l2bm => ../
