// gmini | topology global | model 0cdd9769d0e0
// generated by regforge; do not edit

module gmini_pipe (
    input  logic clk,
    input  logic [47:0] settings_in,
    output logic [31:0] cfg_taps,
    output logic [15:0] cfg_scale
);

    assign cfg_taps = settings_in[31:0];
    assign cfg_scale = settings_in[47:32];

endmodule
