(* Re-export of the leaf library {!Flux_json.Json}: perfbench and the
   server modules refer to it as [Flux_server.Json]. *)
include Flux_json.Json
