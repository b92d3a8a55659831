module barrierpoint/bench

go 1.24

require barrierpoint v0.0.0

replace barrierpoint => ../
