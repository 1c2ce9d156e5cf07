module shredder/bench

go 1.24

require shredder v0.0.0

replace shredder => ../
