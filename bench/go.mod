module objmig/bench

go 1.22

require objmig v0.0.0

replace objmig => ../
