// gmini | topology global | model 0cdd9769d0e0
// generated by regforge; do not edit

module gmini_top (
    input  logic cfg_clk,
    input  logic cfg_rst_n,
    input  logic [5:0] cfg_addr,
    input  logic [31:0] cfg_wdata,
    input  logic cfg_write,
    output logic [31:0] pipe_cfg_taps,
    output logic [15:0] pipe_cfg_scale
);

    logic [31:0] mem [8];

    initial begin
        for (int i = 0; i < 8; i++) mem[i] = '0;
        mem[1] = 32'd256;
    end

    always_ff @(posedge cfg_clk) begin
        if (cfg_write) begin
            case (cfg_addr)
                6'd0: mem[0] <= cfg_wdata;
                6'd1: mem[1] <= cfg_wdata;
                default: ;
            endcase
        end
    end

    logic [47:0] pipe_bundle;
    assign pipe_bundle = {mem[1][15:0], mem[0]};

    gmini_pipe u_pipe (
        .clk(cfg_clk),
        .settings_in(pipe_bundle),
        .cfg_taps(pipe_cfg_taps),
        .cfg_scale(pipe_cfg_scale)
    );

endmodule
