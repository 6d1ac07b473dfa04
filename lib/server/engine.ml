(* Another name for Worker_core: perfbench/served.ml still refers to
   [Engine.default_config]. *)
include Worker_core
