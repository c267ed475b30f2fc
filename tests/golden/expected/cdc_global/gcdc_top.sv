// gcdc | topology global_cdc_dest | model 2e625f16bb03
// generated by regforge; do not edit

module gcdc_top (
    input  logic cfg_clk,
    input  logic adc_clk,
    input  logic cfg_rst_n,
    input  logic [7:0] cfg_addr,
    input  logic [31:0] cfg_wdata,
    input  logic cfg_write,
    output logic [31:0] sampler_cfg_rate,
    output logic [13:0] sampler_cfg_offset
);

    logic [31:0] mem [16];

    initial begin
        for (int i = 0; i < 16; i++) mem[i] = '0;
        mem[1] = 32'd100;
    end

    always_ff @(posedge cfg_clk) begin
        if (cfg_write) begin
            case (cfg_addr)
                8'd0: mem[0] <= cfg_wdata;
                8'd1: mem[1] <= cfg_wdata;
                default: ;
            endcase
        end
    end

    logic [31:0] mem_out [16];
    always_ff @(posedge cfg_clk) begin
        for (int i = 0; i < 16; i++) mem_out[i] <= mem[i];
    end

    logic [45:0] sampler_bundle;
    assign sampler_bundle = {mem_out[1][13:0], mem_out[0]};

    gcdc_sampler u_sampler (
        .clk(adc_clk),
        .settings_in(sampler_bundle),
        .cfg_rate(sampler_cfg_rate),
        .cfg_offset(sampler_cfg_offset)
    );

endmodule
