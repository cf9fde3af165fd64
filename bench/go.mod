module stapio/bench

go 1.22

require stapio v0.0.0

replace stapio => ../
